//! Criterion micro-benchmarks for the parallel infrastructure: the corpus
//! driver at 1/2/4 worker threads and the work-stealing branch-and-bound
//! solver against its serial twin.
//!
//! On a single-core host the parallel configurations measure scheduling
//! overhead rather than speedup; the end-to-end benchmark (`perfbench/`)
//! reports across-loop worker utilization as `par.busy_frac`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optimod::{DepStyle, Objective};
use optimod_bench::ExperimentConfig;
use optimod_ddg::{benchmark_corpus, kernels, CorpusSize};
use optimod_machine::cydra_like;

fn bench_corpus_driver(c: &mut Criterion) {
    let machine = cydra_like();
    let loops: Vec<_> = benchmark_corpus(&machine, CorpusSize::Small)
        .into_iter()
        .take(24)
        .collect();
    let mut group = c.benchmark_group("corpus-driver");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let cfg = ExperimentConfig {
            corpus: CorpusSize::Small,
            budget: Duration::from_millis(200),
            node_cap: 2_000,
            threads,
        };
        group.bench_with_input(BenchmarkId::from_parameter(threads), &cfg, |b, cfg| {
            b.iter(|| {
                cfg.run_suite(
                    &machine,
                    &loops,
                    DepStyle::Structured,
                    Objective::FirstFeasible,
                )
                .len()
            })
        });
    }
    group.finish();
}

fn bench_solver_threads(c: &mut Criterion) {
    let machine = cydra_like();
    let l = kernels::lfk5_tridiag(&machine);
    let mut group = c.benchmark_group("solver-threads");
    group.sample_size(10);
    for threads in [1u32, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let cfg = ExperimentConfig {
                    corpus: CorpusSize::Small,
                    budget: Duration::from_millis(1000),
                    node_cap: 20_000,
                    threads: 1,
                };
                let mut sched_cfg =
                    optimod::SchedulerConfig::new(DepStyle::Structured, Objective::MinMaxLive)
                        .with_time_limit(cfg.budget)
                        .with_node_limit(cfg.node_cap);
                sched_cfg.limits.threads = threads;
                let sched = optimod::OptimalScheduler::new(sched_cfg);
                b.iter(|| sched.schedule(&l, &machine).stats.bb_nodes)
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_corpus_driver, bench_solver_threads);
criterion_main!(benches);
