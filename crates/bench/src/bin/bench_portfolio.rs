//! Portfolio win-rate and latency measurement over the golden corpus:
//! every golden cell (11 kernels x both formulations) is timed under
//! ILP-only and the portfolio (SAT decides first), and
//! `BENCH_portfolio.json` records per-cell wall times plus which backend
//! won each portfolio run.
//!
//! Run: `cargo run --release -p optimod-bench --bin bench_portfolio`

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use optimod::{DepStyle, LoopResult, Objective, OptimalScheduler, Provenance, SchedulerConfig};
use optimod_ddg::{kernels, Loop};
use optimod_machine::{example_3fu, Machine};

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

fn run(l: &Loop, machine: &Machine, style: DepStyle, portfolio: bool) -> (LoopResult, f64) {
    let mut cfg = SchedulerConfig::new(style, Objective::FirstFeasible)
        .with_time_limit(Duration::from_secs(60));
    cfg.limits.threads = 1;
    cfg.portfolio = portfolio;
    let t0 = Instant::now();
    let r = OptimalScheduler::new(cfg).schedule(l, machine);
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

fn winner(r: &LoopResult) -> &'static str {
    match r.provenance {
        Some(Provenance::SatExact) => "sat",
        Some(_) => "ilp",
        None => "none",
    }
}

fn main() {
    let machine = example_3fu();
    let loops = golden_loops(&machine);
    let styles = [
        ("traditional", DepStyle::Traditional),
        ("structured", DepStyle::Structured),
    ];

    println!(
        "Portfolio benchmark — {} kernels x {} formulations\n",
        loops.len(),
        styles.len()
    );
    println!(
        "{:<18} {:<12} {:>3} {:>10} {:>12} {:>7}",
        "kernel", "style", "II", "ilp_ms", "serial_ms", "winner"
    );

    struct Row {
        name: String,
        style: &'static str,
        ii: u32,
        ilp_ms: f64,
        serial_ms: f64,
        serial_winner: &'static str,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (style_name, style) in styles {
        for l in &loops {
            let (ilp, ilp_ms) = run(l, &machine, style, false);
            let (serial, serial_ms) = run(l, &machine, style, true);
            let ii = ilp.ii.expect("golden kernels all schedule");
            assert_eq!(
                serial.ii,
                Some(ii),
                "{}: serial portfolio II drifted",
                l.name()
            );
            let row = Row {
                name: l.name().to_string(),
                style: style_name,
                ii,
                ilp_ms,
                serial_ms,
                serial_winner: winner(&serial),
            };
            println!(
                "{:<18} {:<12} {:>3} {:>10.3} {:>12.3} {:>7}",
                row.name, row.style, row.ii, row.ilp_ms, row.serial_ms, row.serial_winner
            );
            rows.push(row);
        }
    }

    let sat_serial = rows.iter().filter(|r| r.serial_winner == "sat").count();
    println!(
        "\nserial portfolio: sat won {sat_serial}/{} cells",
        rows.len()
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"cells\": {},", rows.len());
    let _ = writeln!(json, "  \"sat_wins_serial\": {sat_serial},");
    json.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"kernel\": \"{}\", \"style\": \"{}\", \"ii\": {}, \
             \"ilp_ms\": {:.4}, \"serial_ms\": {:.4}, \"serial_winner\": \"{}\"}}",
            r.name, r.style, r.ii, r.ilp_ms, r.serial_ms, r.serial_winner
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_portfolio.json", &json).expect("write BENCH_portfolio.json");
    println!("wrote BENCH_portfolio.json");
}
