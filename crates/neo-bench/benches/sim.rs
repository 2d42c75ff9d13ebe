//! Whole-run benchmark of the simulator: the reduced copies of the repository
//! benchmark's three workloads in [`neo_bench::sim`], each run until it drains.
//!
//! * `sim/a10g_ac_overload` — [`ServerRun::ac_overload`];
//! * `sim/a10g_chat_prefix` — [`ServerRun::chat_prefix`];
//! * `sim/fleet64_faults` — [`FleetRun::faults`].
//!
//! Each sample builds the system and submits its requests untimed, then times the run
//! to drain, report included.
#![allow(missing_docs)] // criterion_group! generates an undocumented accessor

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use neo_bench::sim::{FleetRun, ServerRun};
use neo_bench::Policy;
use neo_cluster::Cluster;

fn bench_server(c: &mut Criterion, name: &str, run: &ServerRun) {
    c.bench_function(name, |b| {
        b.iter_batched(
            || run.server(),
            |mut server| server.run_until_idle(),
            BatchSize::LargeInput,
        );
    });
}

fn bench_ac_overload(c: &mut Criterion) {
    bench_server(c, "sim/a10g_ac_overload", &ServerRun::ac_overload());
}

fn bench_chat_prefix(c: &mut Criterion) {
    bench_server(c, "sim/a10g_chat_prefix", &ServerRun::chat_prefix());
}

fn bench_fleet_faults(c: &mut Criterion) {
    let run = FleetRun::faults();
    c.bench_function("sim/fleet64_faults", |b| {
        b.iter_batched(
            || run.cluster(|scenario| scenario.engine(Policy::Neo)),
            Cluster::run,
            BatchSize::LargeInput,
        );
    });
}

criterion_group!(benches, bench_ac_overload, bench_chat_prefix, bench_fleet_faults);
criterion_main!(benches);
