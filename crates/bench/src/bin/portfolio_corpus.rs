//! Cross-backend portfolio acceptance scenario over the golden corpus.
//!
//! Every golden cell (11 kernels x both dependence formulations) is solved
//! three times: ILP-only (the reference), and the portfolio (SAT decides
//! first) at one and at two threads. Acceptance:
//!
//! * both portfolio runs certify the *exact same II* as the ILP-only
//!   reference on every cell, with zero cross-backend disagreements;
//! * both portfolio runs pick the *same winner* on every cell: the
//!   backends run serially at any thread count, so the winner never
//!   depends on timing;
//! * the SAT backend wins at least one cell outright (provenance
//!   `sat-exact`);
//! * the differential oracle is live: a deliberately broken encoder
//!   (an op with every CNF slot forbidden) must be caught as a
//!   `BackendDisagreement` whose minimized repro replays through the
//!   textual loop format and still disagrees.

use std::sync::Arc;
use std::time::Duration;

use optimod::{
    DepStyle, LoopStatus, Objective, OptimalScheduler, Provenance, SatEncodeOptions, ScheduleError,
    SchedulerConfig,
};
use optimod_ddg::{kernels, textfmt, Loop};
use optimod_machine::{example_3fu, Machine};
use optimod_trace::{MemorySink, Trace};

fn golden_loops(machine: &Machine) -> Vec<Loop> {
    vec![
        kernels::figure1(machine),
        kernels::saxpy(machine),
        kernels::dot_product(machine),
        kernels::lfk5_tridiag(machine),
        kernels::lfk6_recurrence(machine),
        kernels::lfk11_first_sum(machine),
        kernels::lfk12_first_diff(machine),
        kernels::fir4(machine),
        kernels::horner(machine),
        kernels::divide_recurrence(machine),
        kernels::stream_copy(machine),
    ]
}

fn scheduler(style: DepStyle, portfolio: bool, threads: u32, trace: Trace) -> OptimalScheduler {
    let mut cfg = SchedulerConfig::new(style, Objective::FirstFeasible)
        .with_time_limit(Duration::from_secs(60));
    cfg.limits.threads = threads;
    cfg.limits.trace = trace;
    cfg.portfolio = portfolio;
    OptimalScheduler::new(cfg)
}

fn main() {
    let machine = example_3fu();
    let loops = golden_loops(&machine);
    let styles = [
        ("traditional", DepStyle::Traditional),
        ("structured", DepStyle::Structured),
    ];

    let mut cells = 0u64;
    let mut sat_wins = 0u64;
    let mut ilp_wins = 0u64;
    for (style_name, style) in styles {
        for l in &loops {
            cells += 1;
            let reference = scheduler(style, false, 1, Trace::disabled()).schedule(l, &machine);
            assert_eq!(
                reference.status,
                LoopStatus::Optimal,
                "{} / {style_name}: reference ILP solve must be optimal",
                l.name()
            );
            let ref_ii = reference.ii.expect("optimal result has an II");

            let mut winners = Vec::new();
            for (mode, threads) in [("1-thread", 1u32), ("2-thread", 2u32)] {
                let sink = Arc::new(MemorySink::default());
                let r =
                    scheduler(style, true, threads, Trace::new(sink.clone())).schedule(l, &machine);
                assert!(
                    !matches!(r.error, Some(ScheduleError::BackendDisagreement { .. })),
                    "{} / {style_name} / {mode}: cross-backend disagreement: {:?}",
                    l.name(),
                    r.error
                );
                assert_eq!(
                    r.status,
                    LoopStatus::Optimal,
                    "{} / {style_name} / {mode}: portfolio did not settle the cell ({:?})",
                    l.name(),
                    r.status
                );
                assert_eq!(
                    r.ii,
                    Some(ref_ii),
                    "{} / {style_name} / {mode}: portfolio certified a different II",
                    l.name()
                );
                let schedule = r.schedule.as_ref().expect("optimal result has a schedule");
                assert_eq!(
                    schedule.validate(l, &machine),
                    None,
                    "{} / {style_name} / {mode}: emitted schedule does not validate",
                    l.name()
                );
                let rep = sink.report();
                assert_eq!(
                    rep.sat_wins + rep.ilp_wins,
                    1,
                    "{} / {style_name} / {mode}: exactly one portfolio win event per cell",
                    l.name()
                );
                winners.push((r.provenance, rep.sat_wins));
            }
            assert_eq!(
                winners[0],
                winners[1],
                "{} / {style_name}: the winner changed with the thread count",
                l.name()
            );
            match winners[0].0 {
                Some(Provenance::SatExact) => sat_wins += 1,
                Some(Provenance::Exact) => ilp_wins += 1,
                other => panic!(
                    "{} / {style_name}: unexpected provenance {other:?}",
                    l.name()
                ),
            }
        }
    }
    println!(
        "portfolio corpus: {cells} cells x (1 + 2 threads), all IIs identical to ILP-only, \
         winners identical at both thread counts; wins: sat {sat_wins}, ilp {ilp_wins}"
    );
    assert!(
        sat_wins >= 1,
        "the SAT backend must win at least one golden cell outright"
    );

    // The differential oracle must actually fire: sabotage the encoder
    // (forbid op 0's every slot) and demand a minimized, replayable repro.
    let l = kernels::figure1(&machine);
    let mut cfg = SchedulerConfig::new(DepStyle::Structured, Objective::FirstFeasible);
    cfg.portfolio = true;
    cfg.limits.threads = 1;
    cfg.sat_encode = SatEncodeOptions {
        forbid_op: Some(0),
        ..SatEncodeOptions::default()
    };
    let sabotage_opts = cfg.sat_encode;
    let r = OptimalScheduler::new(cfg).schedule(&l, &machine);
    assert_eq!(
        r.status,
        LoopStatus::Failed,
        "a sabotaged encoder must fail the run, got {:?}",
        r.status
    );
    let Some(ScheduleError::BackendDisagreement { ii, detail, repro }) = r.error else {
        panic!("expected BackendDisagreement, got {:?}", r.error);
    };
    let parsed = textfmt::parse(&repro).expect("minimized repro parses as a loop file");
    assert_eq!(parsed.machine.name(), machine.name());
    assert!(
        parsed.l.edges().len() < l.edges().len(),
        "minimizer should drop at least one edge from figure1"
    );
    // The minimized instance still disagrees when replayed from the text:
    // the SAT side (same sabotage) refutes the II the ILP certifies.
    let mut replay_cfg = SchedulerConfig::new(DepStyle::Structured, Objective::FirstFeasible);
    replay_cfg.portfolio = true;
    replay_cfg.limits.threads = 1;
    replay_cfg.sat_encode = sabotage_opts;
    let replayed = OptimalScheduler::new(replay_cfg).schedule(&parsed.l, &parsed.machine);
    assert!(
        matches!(
            replayed.error,
            Some(ScheduleError::BackendDisagreement { .. })
        ),
        "replayed repro no longer disagrees: {:?}",
        replayed.error
    );
    println!(
        "differential oracle: sabotaged encoder caught at II {ii} ({detail}); minimized repro \
         has {} ops / {} edges and still disagrees on replay",
        parsed.l.num_ops(),
        parsed.l.edges().len()
    );
    println!("portfolio corpus acceptance criteria satisfied");
}
