//! Micro-benchmarks of the iteration-time estimator and one full simulated iteration.
//!
//! The estimator runs several times per scheduling decision (once per candidate CPU
//! request in step 4 of §3.2), so it has to be cheap; the end-to-end `engine_step`
//! benchmark measures a complete schedule → execute → account iteration.

#![allow(missing_docs)] // criterion_group! generates an undocumented accessor

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neo_core::batch::{ScheduleDecision, SubBatch};
use neo_core::config::EngineConfig;
use neo_core::engine::Engine;
use neo_core::pipeline::estimate_asymmetric;
use neo_core::request::Request;
use neo_core::scheduler::NeoScheduler;
use neo_core::ExecutionMode;
use neo_sim::{CostModel, ModelDesc, Testbed};

fn decision(n_gpu: usize, n_cpu: usize) -> ScheduleDecision {
    ScheduleDecision {
        mode: ExecutionMode::Asymmetric,
        batch0: SubBatch {
            prefills: vec![],
            gpu_decodes: (0..n_gpu as u64).map(|i| (i, 800)).collect(),
            cpu_decodes: vec![],
        },
        batch1: SubBatch {
            prefills: vec![],
            gpu_decodes: vec![],
            cpu_decodes: (1000..1000 + n_cpu as u64).map(|i| (i, 800)).collect(),
        },
        swap_out: vec![],
        swap_in: vec![],
        preempt: vec![],
        demote_disk: vec![],
        promote_disk: vec![],
    }
}

fn bench_estimators(c: &mut Criterion) {
    let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
    let mut group = c.benchmark_group("pipeline/estimate");
    for &n in &[16usize, 128] {
        let d = decision(n, n / 2);
        group.bench_with_input(BenchmarkId::new("asymmetric", n), &d, |b, d| {
            b.iter(|| estimate_asymmetric(&cost, d, 0, 0, true));
        });
    }
    group.finish();
}

fn bench_engine_step(c: &mut Criterion) {
    c.bench_function("pipeline/engine_step_64_requests", |b| {
        b.iter_batched(
            || {
                let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
                let mut engine =
                    Engine::new(cost, EngineConfig::default(), Box::new(NeoScheduler::new()));
                for id in 0..64 {
                    engine.submit(Request::new(id, 0.0, 500, 100)).unwrap();
                }
                // Warm the system past the initial prefill burst.
                for _ in 0..5 {
                    engine.step();
                }
                engine
            },
            |mut engine| {
                engine.step();
                engine
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_estimators, bench_engine_step);
criterion_main!(benches);
