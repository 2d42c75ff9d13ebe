//! Micro-benchmarks of the load-aware scheduler.
//!
//! The paper's scheduler runs once per iteration on the critical path, so its own cost
//! must stay in the tens of microseconds even with hundreds of queued requests. This
//! bench measures one `schedule()` call against queue depth, for NEO and the baselines.
#![allow(missing_docs)] // criterion_group! generates an undocumented accessor

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neo_baselines::{
    FastDecodePlusScheduler, GpuOnlyScheduler, PipoScheduler, SpecOffloadScheduler,
};
use neo_core::config::EngineConfig;
use neo_core::request::Request;
use neo_core::scheduler::{NeoScheduler, ScheduleContext, Scheduler};
use neo_kvcache::{Device, IdTable};
use neo_sim::profiler::ProfiledCostModel;
use neo_sim::{CostModel, ModelDesc, Testbed};

struct Fixture {
    cost: ProfiledCostModel,
    config: EngineConfig,
    requests: IdTable<Request>,
    waiting: Vec<u64>,
    gpu_run: Vec<u64>,
    cpu_run: Vec<u64>,
    prefill_device: IdTable<Device>,
}

fn build(n_waiting: usize, n_gpu: usize, n_cpu: usize) -> Fixture {
    let cost =
        ProfiledCostModel::new(CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1));
    let mut requests = IdTable::new();
    let mut waiting = Vec::new();
    let mut gpu_run = Vec::new();
    let mut cpu_run = Vec::new();
    let mut id = 0u64;
    for _ in 0..n_waiting {
        requests.insert(id, Request::new(id, 0.0, 1000, 200)).unwrap();
        waiting.push(id);
        id += 1;
    }
    for _ in 0..n_gpu {
        let mut r = Request::new(id, 0.0, 800, 200);
        r.advance_prefill(800);
        requests.insert(id, r).unwrap();
        gpu_run.push(id);
        id += 1;
    }
    for _ in 0..n_cpu {
        let mut r = Request::new(id, 0.0, 800, 200);
        r.advance_prefill(800);
        requests.insert(id, r).unwrap();
        cpu_run.push(id);
        id += 1;
    }
    Fixture {
        cost,
        config: EngineConfig::default(),
        requests,
        waiting,
        gpu_run,
        cpu_run,
        prefill_device: IdTable::new(),
    }
}

fn ctx(fx: &Fixture) -> ScheduleContext<'_> {
    ScheduleContext {
        cost: &fx.cost,
        config: &fx.config,
        requests: &fx.requests,
        waiting: &fx.waiting,
        gpu_run: &fx.gpu_run,
        cpu_run: &fx.cpu_run,
        disk_run: &[],
        gpu_free_tokens: 30_000,
        cpu_free_tokens: 300_000,
        disk_free_tokens: 0,
        gpu_capacity_tokens: 30_000,
        prefill_device: &fx.prefill_device,
    }
}

fn bench_neo_queue_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/neo_queue_depth");
    for &n in &[16usize, 64, 256] {
        let fx = build(n / 4, n / 2, n / 4);
        group.bench_with_input(BenchmarkId::from_parameter(n), &fx, |b, fx| {
            let mut sched = NeoScheduler::new();
            b.iter(|| sched.schedule(&ctx(fx)));
        });
    }
    group.finish();
}

/// An overloaded server's shape: a full GPU batch plus a prefill chunk, and 256 CPU
/// residents of varied context, most of which fit under neither balancing inequality.
/// Step 4 of NEO's schedule tests them in ascending context and stops at the first one
/// it rejects, since the noiseless profile's CPU-attention floor is its own query; it
/// still gathers and sorts all 256.
fn bench_neo_cpu_heavy(c: &mut Criterion) {
    let mut fx = build(1, 64, 256);
    for (i, &id) in fx.cpu_run.iter().enumerate() {
        let len = 400 + (i * 37) % 1600;
        let mut r = Request::new(id, 0.0, len, 200);
        r.advance_prefill(len);
        fx.requests.insert(id, r).unwrap();
    }
    let mut group = c.benchmark_group("scheduler/neo_cpu_heavy");
    group.bench_function("256", |b| {
        let mut sched = NeoScheduler::new();
        // 600 free GPU tokens: the batch's new slots and the chunk fit, with too
        // little room left to swap any CPU resident back in.
        b.iter(|| sched.schedule(&ScheduleContext { gpu_free_tokens: 600, ..ctx(&fx) }));
    });
    group.finish();
}

fn bench_policies(c: &mut Criterion) {
    let fx = build(32, 64, 64);
    let mut group = c.benchmark_group("scheduler/policy_comparison");
    group.bench_function("neo", |b| {
        let mut s = NeoScheduler::new();
        b.iter(|| s.schedule(&ctx(&fx)));
    });
    group.bench_function("vllm_like", |b| {
        let mut s = GpuOnlyScheduler::vllm_like();
        b.iter(|| s.schedule(&ctx(&fx)));
    });
    group.bench_function("fastdecode_plus", |b| {
        let mut s = FastDecodePlusScheduler::new();
        b.iter(|| s.schedule(&ctx(&fx)));
    });
    group.bench_function("pipo", |b| {
        let mut s = PipoScheduler::new();
        b.iter(|| s.schedule(&ctx(&fx)));
    });
    group.bench_function("specoffload", |b| {
        let mut s = SpecOffloadScheduler::new();
        b.iter(|| s.schedule(&ctx(&fx)));
    });
    group.finish();
}

criterion_group!(benches, bench_neo_queue_depth, bench_neo_cpu_heavy, bench_policies);
criterion_main!(benches);
