//! The untraced pipeline: one unit is loop text -> parse -> schedule (the
//! scheduler certifies internally) [-> explain at II* - 1], then an
//! external re-certification of whatever the program claimed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use optimod::{
    certify, explain_at, explain_options, Claim, ExplainOutcome, LoopStatus, Objective,
    OptimalScheduler, SchedulerConfig,
};
use optimod_ddg::textfmt;

use crate::inputs::Unit;

/// How every unit of a workload is scheduled.
#[derive(Clone, Debug)]
pub struct Config {
    pub objective: Objective,
    /// Per-loop wall budget across all tentative IIs.
    pub budget: Duration,
    /// Per-loop branch-and-bound node cap.
    pub node_cap: u64,
    /// End each unit with `explain_at(II* - 1)`.
    pub explain: bool,
}

impl Config {
    /// The default scheduler configuration, single-threaded per loop so
    /// that counters are deterministic.
    pub fn scheduler(&self, unit: &Unit) -> SchedulerConfig {
        let mut cfg = SchedulerConfig::new(unit.style, self.objective)
            .with_time_limit(self.budget)
            .with_node_limit(self.node_cap);
        cfg.limits.threads = 1;
        cfg
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Certified,
    FeasibleOnly,
    TimedOut,
    Infeasible,
    Invalid,
    Failed,
    ExplainBudget,
    UncertifiedCore,
}

impl Status {
    pub fn name(self) -> &'static str {
        match self {
            Status::Certified => "certified",
            Status::FeasibleOnly => "feasible-only",
            Status::TimedOut => "timed-out",
            Status::Infeasible => "infeasible",
            Status::Invalid => "invalid",
            Status::Failed => "failed",
            Status::ExplainBudget => "explain-budget",
            Status::UncertifiedCore => "uncertified-core",
        }
    }
}

/// What one unit produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub unit: usize,
    pub worker: usize,
    pub pass: usize,
    /// Seconds since the phase began.
    pub start: f64,
    pub end: f64,
    pub ms: f64,
    pub status: Status,
    pub mii: u32,
    pub ii: Option<u32>,
    /// Ground-truth objective measured on the schedule.
    pub objective: Option<i64>,
    pub nodes: u64,
    pub iters: u64,
    pub times: Vec<i64>,
    /// Raw and minimized core sizes of the explanation.
    pub core: Option<(usize, usize)>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.status == Status::Certified
    }
}

/// Runs one unit. `Err` means a wrong result: a schedule the certifier
/// refuses, or an explanation that contradicts the certified II.
pub fn run_unit(unit: &Unit, cfg: &Config) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let parsed = textfmt::parse(&unit.text).map_err(|e| format!("{}: {e}", unit.name))?;
    let (l, m) = (&parsed.l, &parsed.machine);
    let sc = cfg.scheduler(unit);
    let sched = OptimalScheduler::new(sc.clone());
    let r = sched.schedule(l, m);
    let mut status = match r.status {
        LoopStatus::Optimal => Status::Certified,
        LoopStatus::FeasibleOnly => Status::FeasibleOnly,
        LoopStatus::TimedOut => Status::TimedOut,
        LoopStatus::Infeasible => Status::Infeasible,
        LoopStatus::Invalid => Status::Invalid,
        LoopStatus::Failed => Status::Failed,
    };
    let mut core = None;
    if let (true, Status::Certified, Some(ii)) = (cfg.explain, status, r.ii) {
        if ii > 1 {
            match explain_at(l, m, ii - 1, &sc, &explain_options(&sc)) {
                ExplainOutcome::Explained(ex) => {
                    if ex.ii != ii - 1 || ex.core.is_empty() {
                        return Err(format!(
                            "{}: malformed explanation at II {}",
                            unit.name,
                            ii - 1
                        ));
                    }
                    core = Some((ex.raw_core_size, ex.core.len()));
                    if !ex.certified {
                        status = Status::UncertifiedCore;
                    }
                }
                ExplainOutcome::Satisfiable => {
                    return Err(format!(
                        "{}: explainer finds II {} feasible below the certified II {ii}",
                        unit.name,
                        ii - 1
                    ))
                }
                ExplainOutcome::Budget => status = Status::ExplainBudget,
            }
        }
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut objective = None;
    let mut times = Vec::new();
    if let Some(s) = &r.schedule {
        objective = sched.exact_objective(l, s);
        let claim = Claim {
            graph: l,
            machine: m,
            ii: s.ii(),
            times: s.times(),
            claimed_optimal: r.status == LoopStatus::Optimal,
            claimed_objective: r.objective_value,
            exact_objective: objective,
            claimed_bound: None,
        };
        certify(&claim).map_err(|e| format!("{}: certificate refused: {e}", unit.name))?;
        if r.ii != Some(s.ii()) || s.ii() < r.mii.value() {
            return Err(format!(
                "{}: reported II disagrees with the schedule",
                unit.name
            ));
        }
        times = s.times().to_vec();
    } else if status == Status::Certified {
        return Err(format!("{}: optimal status without a schedule", unit.name));
    }
    if let (Some(want), Status::Certified) = (unit.golden_ii, status) {
        if r.ii != Some(want) {
            return Err(format!(
                "{}: II {:?} differs from the golden fixture's {want}",
                unit.name, r.ii
            ));
        }
    }
    Ok(Outcome {
        unit: 0,
        worker: 0,
        pass: 0,
        start: 0.0,
        end: 0.0,
        ms,
        status,
        mii: r.mii.value(),
        ii: r.ii,
        objective,
        nodes: r.stats.bb_nodes,
        iters: r.stats.simplex_iterations,
        times,
        core,
    })
}

/// The complete passes of one phase.
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    /// Seconds from the phase start to the last unit of the last complete
    /// pass.
    pub wall: f64,
    pub passes: usize,
}

/// Runs `passes` passes over `units` on `workers` threads (fanned out with
/// `optimod_par`); units already started finish. No pass after the first
/// starts once `cap_seconds` have passed. Only complete passes count, so
/// every run measures the same multiset of units.
pub fn run_phase(
    units: &[Unit],
    cfg: &Config,
    passes: usize,
    cap_seconds: f64,
    workers: usize,
) -> Result<Phase, String> {
    let n = units.len();
    let next = Mutex::new(0usize);
    let abort = AtomicBool::new(false);
    let error: Mutex<Option<String>> = Mutex::new(None);
    let origin = Instant::now();
    let ids: Vec<usize> = (0..workers).collect();
    let per_worker = optimod_par::par_map(workers, &ids, |_, &w| {
        let mut done = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let k = {
                let mut next = next.lock().expect("dispatch");
                let k = *next;
                let late =
                    k.is_multiple_of(n) && k > 0 && origin.elapsed().as_secs_f64() > cap_seconds;
                if k >= passes * n || late {
                    break;
                }
                *next += 1;
                k
            };
            let start = origin.elapsed().as_secs_f64();
            match run_unit(&units[k % n], cfg) {
                Ok(mut o) => {
                    o.unit = k % n;
                    o.worker = w;
                    o.pass = k / n;
                    o.start = start;
                    o.end = origin.elapsed().as_secs_f64();
                    done.push(o);
                }
                Err(e) => {
                    abort.store(true, Ordering::Relaxed);
                    error.lock().expect("error slot").get_or_insert(e);
                }
            }
        }
        done
    });
    if let Some(e) = error.into_inner().expect("error slot") {
        return Err(e);
    }
    let mut all: Vec<Outcome> = per_worker.into_iter().flatten().collect();
    let mut per_pass = vec![0usize; all.iter().map(|o| o.pass + 1).max().unwrap_or(0)];
    for o in &all {
        per_pass[o.pass] += 1;
    }
    let passes = per_pass.iter().take_while(|&&c| c == n).count();
    all.retain(|o| o.pass < passes);
    let wall = all.iter().map(|o| o.end).fold(0.0, f64::max);
    check_consistency(units, &all)?;
    Ok(Phase {
        outcomes: all,
        wall,
        passes,
    })
}

/// Every repeat of a unit that finished must reproduce the same II,
/// objective and counters, and both formulations of a golden kernel must
/// agree on II and objective.
fn check_consistency(units: &[Unit], outcomes: &[Outcome]) -> Result<(), String> {
    let mut first: Vec<Option<&Outcome>> = vec![None; units.len()];
    for o in outcomes.iter().filter(|o| o.ok()) {
        match first[o.unit] {
            None => first[o.unit] = Some(o),
            Some(f) => {
                if (f.ii, f.objective, f.nodes, f.iters, &f.times)
                    != (o.ii, o.objective, o.nodes, o.iters, &o.times)
                {
                    return Err(format!(
                        "{}: repeated solve is not deterministic (II {:?}/{:?}, objective \
                         {:?}/{:?}, nodes {}/{}, iterations {}/{})",
                        units[o.unit].name,
                        f.ii,
                        o.ii,
                        f.objective,
                        o.objective,
                        f.nodes,
                        o.nodes,
                        f.iters,
                        o.iters
                    ));
                }
            }
        }
    }
    for (i, a) in units.iter().enumerate() {
        for (j, b) in units.iter().enumerate().skip(i + 1) {
            let kernel = |u: &Unit| u.name.split('/').next().map(str::to_string);
            if a.golden_ii.is_none() || kernel(a) != kernel(b) {
                continue;
            }
            if let (Some(x), Some(y)) = (first[i], first[j]) {
                if (x.ii, x.objective) != (y.ii, y.objective) {
                    return Err(format!(
                        "{} and {} disagree: II {:?}/{:?}, objective {:?}/{:?}",
                        a.name, b.name, x.ii, y.ii, x.objective, y.objective
                    ));
                }
            }
        }
    }
    Ok(())
}
