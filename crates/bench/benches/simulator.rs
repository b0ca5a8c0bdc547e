//! Criterion benchmarks for the discrete-event simulator itself: end-to-end
//! throughput per resource manager and the event-engine hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use fifer_bench::perf::{deep_queue_tasks, drain_indexed, drain_linear};
use fifer_core::rm::RmKind;
use fifer_core::scheduling::SchedulingPolicy;
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::engine::{Event, SlabEventQueue};
use fifer_sim::{SimConfig, Simulation};
use fifer_workloads::{JobStream, PoissonTrace, WorkloadMix};
use std::hint::black_box;

fn bench_deep_queue_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("deep_queue_dispatch");
    g.sample_size(10);
    let tasks = deep_queue_tasks(10_000);
    for policy in [SchedulingPolicy::Lsf, SchedulingPolicy::Edf] {
        g.bench_function(format!("indexed_{policy:?}_10k").to_lowercase(), |b| {
            b.iter(|| black_box(drain_indexed(&tasks, policy)))
        });
        g.bench_function(format!("linear_{policy:?}_10k").to_lowercase(), |b| {
            b.iter(|| black_box(drain_linear(&tasks, policy)))
        });
    }
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    // the shipped engine as a replay drives it: 1k job arrivals loaded
    // through the slab, each scheduling a completion into the heap
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = SlabEventQueue::new();
            q.load_arrivals((0..1_000u64).map(|i| SimTime::from_micros(i * 1_000)));
            let mut count = 0u64;
            while let Some((at, event)) = q.pop() {
                if let Event::JobArrival { job } = event {
                    q.schedule(
                        at + SimDuration::from_micros((job as u64 * 7919) % 100_000),
                        Event::TaskFinish {
                            container: job as u64,
                        },
                    );
                }
                count += 1;
            }
            black_box(count)
        })
    });
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation_throughput");
    g.sample_size(10);
    let stream = JobStream::generate(
        &PoissonTrace::new(20.0),
        WorkloadMix::Heavy,
        SimDuration::from_secs(60),
        42,
    );
    // Fifer without pre-training (pre-training cost is a predictor bench)
    for kind in [RmKind::Bline, RmKind::SBatch, RmKind::RScale, RmKind::Fifer] {
        g.bench_function(format!("{kind}_60s_20rps"), |b| {
            b.iter(|| {
                let cfg = SimConfig::prototype(kind.config(), 20.0);
                black_box(Simulation::new(cfg, &stream).run().total_spawns)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_deep_queue_dispatch,
    bench_simulation
);
criterion_main!(benches);
