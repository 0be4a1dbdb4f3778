//! End-to-end benchmark of the optimod pipeline: loop text in, certified
//! result out, in process, with an in-process `optimodd` probed by the
//! traced run.
//!
//! ```text
//! optimod-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one row per unit, then, as the last line of standard output, a
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced re-drive (`--trace 1`). Any wrong result exits with
//! status 1 and prints no metrics. `perfbench/README.md` lists the
//! workloads and what each metric means.

mod batch;
mod daemon;
mod inputs;
mod spans;
mod stats;
mod traced;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use optimod::Objective;

use batch::{Config, Outcome, Phase};
use inputs::Unit;
use stats::{median, ratio, Metrics};

/// Loop-level workers: the container has two cores.
pub const WORKERS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// No pass after the first starts past this multiple of `--seconds`.
const PASS_CAP: f64 = 2.5;
/// Per-loop wall budget of the synthetic workloads (also the explanation
/// engine's budget per sub-solve).
const SYNTH_BUDGET: Duration = Duration::from_secs(1);
/// Per-loop B&B node cap of the synthetic workloads.
const SYNTH_NODE_CAP: u64 = 5_000;
/// Units the traced run re-drives: a fixed prefix of the canonical order
/// (one band pattern of a synthetic draw; every golden unit).
const REDRIVE_UNITS: usize = 30;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        // Run outputs, relative to the working directory (the checkout).
        out: PathBuf::from(".bench_out"),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: optimod-perfbench --workload <golden-minreg|synth-minreg|synth-explain> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        "golden-minreg" | "synth-minreg" | "synth-explain" => run_batch(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok((metrics, attempted, failed)) => println!("{}", metrics.result_json(attempted, failed)),
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// Inputs and configuration of a batch workload, in canonical order, and
/// the nominal length of one pass over them (two workers): a run makes
/// `--seconds / pass` passes, at least one.
fn batch_inputs(workload: &str) -> (Vec<Unit>, Config, f64) {
    match workload {
        "golden-minreg" => (
            inputs::golden_units(),
            Config {
                objective: Objective::MinMaxLive,
                budget: Duration::from_secs(60),
                node_cap: 1_000_000,
                explain: false,
            },
            0.6,
        ),
        "synth-minreg" => (
            inputs::synth_units(1, 6, &inputs::BAND_PATTERN),
            Config {
                objective: Objective::MinMaxLive,
                budget: SYNTH_BUDGET,
                node_cap: SYNTH_NODE_CAP,
                explain: false,
            },
            30.0,
        ),
        _ => (
            inputs::synth_units(2, 5, &inputs::BAND_PATTERN),
            Config {
                objective: Objective::FirstFeasible,
                budget: SYNTH_BUDGET,
                node_cap: SYNTH_NODE_CAP,
                explain: true,
            },
            30.0,
        ),
    }
}

fn passes(seconds: f64, pass_seconds: f64) -> usize {
    ((seconds / pass_seconds).round() as usize).max(1)
}

/// A batch workload after set-up: its units in the seed's order.
struct Batch {
    units: Vec<Unit>,
    /// Positions in `units` of the traced run's fixed re-drive set.
    redrive: Vec<usize>,
    cfg: Config,
    pass_seconds: f64,
    setup_s: f64,
}

/// Repeats set-up `SETUPS` times: input generation, then a warm-up that
/// schedules the structured golden kernels under the workload's own
/// configuration (the same fixed work for every workload and seed), then
/// the seed's rotation of the canonical order (rotation keeps neighbouring
/// units, so the pairs that run at the same time, mostly the same across
/// seeds). `setup_s` is the median.
fn batch_setup(args: &Args) -> Result<Batch, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (mut units, cfg, pass_seconds) = batch_inputs(&args.workload);
        let warmup: Vec<Unit> = inputs::golden_units()
            .into_iter()
            .filter(|u| u.style == optimod::DepStyle::Structured)
            .collect();
        batch::run_phase(&warmup, &cfg, 1, 0.0, WORKERS)?;
        let n = units.len();
        let shift = (args.seed % n as u64) as usize;
        units.rotate_left(shift);
        let redrive = (0..REDRIVE_UNITS.min(n))
            .map(|i| (i + n - shift) % n)
            .collect();
        times.push(t0.elapsed().as_secs_f64());
        last = Some((units, redrive, cfg, pass_seconds));
    }
    let (units, redrive, cfg, pass_seconds) = last.expect("at least one set-up");
    Ok(Batch {
        units,
        redrive,
        cfg,
        pass_seconds,
        setup_s: median(&times),
    })
}

type RunResult = Result<(Metrics, u64, u64), String>;

fn run_batch(args: &Args) -> RunResult {
    let process_start = Instant::now();
    let Batch {
        units,
        redrive,
        cfg,
        pass_seconds,
        setup_s,
    } = batch_setup(args)?;
    println!(
        "workload {} seed {}: {} units, set-up {:.3}s (median of {SETUPS}) after {:.3}s",
        args.workload,
        args.seed,
        units.len(),
        setup_s,
        process_start.elapsed().as_secs_f64()
    );
    let plain_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let phase = batch::run_phase(
        &units,
        &cfg,
        passes(plain_seconds, pass_seconds),
        PASS_CAP * plain_seconds,
        WORKERS,
    )?;
    print_rows(&units, &phase.outcomes, args)?;

    let attempted = phase.outcomes.len() as u64;
    let failed = phase.outcomes.iter().filter(|o| !o.ok()).count() as u64;
    if args.trace {
        let metrics = traced::batch_layers(args, &units, &redrive, &cfg, &phase, WORKERS)?;
        return Ok((metrics, attempted, failed));
    }
    let metrics = batch_metrics(&phase, setup_s);
    metrics.print_table(&format!(
        "end-to-end, {} units over {} pass(es), {} certified, {} failed",
        attempted,
        phase.passes,
        attempted - failed,
        failed
    ));
    Ok((metrics, attempted, failed))
}

/// Unit times are those of the certified units: a failed unit mostly ends
/// on its wall budget, a time the configuration sets, not the program, so
/// failures count in `failed` (and lower `loops_per_s`) instead.
fn batch_metrics(phase: &Phase, setup_s: f64) -> Metrics {
    let ms: Vec<f64> = phase
        .outcomes
        .iter()
        .filter(|o| o.ok())
        .map(|o| o.ms)
        .collect();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("loops_per_s", ratio(ms.len() as f64, phase.wall), "1/s");
    m.put_quantile("loop_ms_p50", &ms, 0.5, "ms");
    m.put_quantile("loop_ms_p90", &ms, 0.9, "ms");
    m
}

/// One row per distinct unit (ms is the median over its repeats), printed
/// and written to `<out>/<workload>-seed<n>.rows.tsv` for per-loop
/// comparisons (`perfbench/compare.py`).
fn print_rows(units: &[Unit], outcomes: &[Outcome], args: &Args) -> Result<(), String> {
    let mut tsv = String::from("unit\tops\tminii\tii\tstatus\tnodes\titers\tms\truns\n");
    println!(
        "{:<26} {:>4} {:>6} {:>4} {:<16} {:>8} {:>9} {:>10} {:>5}",
        "unit", "ops", "MinII", "II", "status", "nodes", "iters", "ms", "runs"
    );
    for (i, u) in units.iter().enumerate() {
        let runs: Vec<&Outcome> = outcomes.iter().filter(|o| o.unit == i).collect();
        let Some(first) = runs.first() else { continue };
        let ms = median(&runs.iter().map(|o| o.ms).collect::<Vec<_>>());
        let ii = first.ii.map_or("-".to_string(), |v| v.to_string());
        println!(
            "{:<26} {:>4} {:>6} {:>4} {:<16} {:>8} {:>9} {:>10.3} {:>5}",
            u.name,
            u.ops,
            first.mii,
            ii,
            first.status.name(),
            first.nodes,
            first.iters,
            ms,
            runs.len()
        );
        tsv.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{}\n",
            u.name,
            u.ops,
            first.mii,
            ii,
            first.status.name(),
            first.nodes,
            first.iters,
            ms,
            runs.len()
        ));
    }
    let path = args
        .out
        .join(format!("{}-seed{}.rows.tsv", args.workload, args.seed));
    std::fs::write(&path, tsv).map_err(|e| format!("write {}: {e}", path.display()))
}
