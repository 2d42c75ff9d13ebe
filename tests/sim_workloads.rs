//! Pins what the simulator benchmark's three reduced workloads ([`neo_bench::sim`],
//! timed by `benches/sim.rs`) simulate: per run, the completions, the streamed tokens,
//! the engine iterations, and the bits of the makespan and of the TTFT and ITL p50 and
//! p99. A change that claims to keep the simulation bit for bit is held to it here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use neo_bench::sim::{FleetRun, ServerRun};
use neo_bench::Policy;
use neo_core::{Engine, EngineConfig, ScheduleContext, ScheduleDecision, Scheduler};
use neo_kvcache::Device;
use neo_serve::LatencySummary;

/// What a run is pinned by: completions, streamed tokens, iterations, and the bits of
/// the makespan and of the TTFT p50 and p99 and the ITL p50 and p99.
type Pin = (usize, u64, u64, u64, [u64; 4]);

fn pin(
    completed: usize,
    streamed_tokens: u64,
    iterations: u64,
    makespan: f64,
    ttft: Option<LatencySummary>,
    itl: Option<LatencySummary>,
) -> Pin {
    let (ttft, itl) = (ttft.expect("tokens streamed"), itl.expect("tokens streamed"));
    let bits = [ttft.p50, ttft.p99, itl.p50, itl.p99].map(f64::to_bits);
    (completed, streamed_tokens, iterations, makespan.to_bits(), bits)
}

fn server_pin(run: &ServerRun) -> Pin {
    let r = run.server().run_until_idle();
    pin(r.completed, r.streamed_tokens, r.iterations, r.makespan, r.ttft, r.itl)
}

/// Counts the schedules of the engines it wraps: one per engine iteration.
struct Counted(Box<dyn Scheduler>, Arc<AtomicU64>);

impl Scheduler for Counted {
    fn schedule(&mut self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.schedule(ctx)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn kv_pools(&self) -> &'static [Device] {
        self.0.kv_pools()
    }
}

/// 1,000 AC-like requests at 6 req/s on one A10G: a 717.19 s makespan, TTFT p50/p99
/// 218.50/417.91 s, ITL p50/p99 46.3 ms/1.18 s.
#[test]
fn the_ac_overload_run_is_pinned() {
    let bits = [0x406b50051d4ca000, 0x407a1e986148ffde, 0x3fa7b93034669000, 0x3ff2f0b9d14530c0];
    let pinned = (1_000, 180_164, 5_169, 0x40866988aaafd549, bits);
    assert_eq!(server_pin(&ServerRun::ac_overload()), pinned);
}

/// 150 four-turn chat sessions with the prefix cache and the disk tier: a 194.11 s
/// makespan, TTFT p50/p99 65.7/702.0 ms, ITL p50/p99 35.2/126.4 ms.
#[test]
fn the_chat_prefix_run_is_pinned() {
    let bits = [0x3fb0d2ca2116b800, 0x3fe676639b1e6200, 0x3fa2061167983000, 0x3fc02d3f4c8c4000];
    let pinned = (600, 28_753, 4_849, 0x406843845029cd21, bits);
    assert_eq!(server_pin(&ServerRun::chat_prefix()), pinned);
}

/// 4,000 fleet-mix requests on 64 engines with outages and failover: a 139.18 s
/// makespan, TTFT p50/p99 175.5 ms/1.51 s, ITL p50/p99 29.8/143.6 ms, and 116,665
/// iterations over all engines.
#[test]
fn the_fleet_faults_run_is_pinned() {
    let iterations = Arc::new(AtomicU64::new(0));
    let cluster = FleetRun::faults().cluster(|scenario| {
        let counted = Counted(Policy::Neo.scheduler(), Arc::clone(&iterations));
        Engine::new(scenario.cost_model(), EngineConfig::default(), Box::new(counted))
    });
    let r = cluster.run();
    let iterations = iterations.load(Ordering::Relaxed);
    let bits = [0x3fc6777f1d723500, 0x3ff8375143a75300, 0x3f9e8d0f392cb000, 0x3fc26148b483c800];
    assert_eq!(
        pin(r.completed, r.streamed_tokens, iterations, r.makespan, r.ttft, r.itl),
        (4_000, 371_906, 116_665, 0x406165ba1cf5a2f3, bits)
    );
}
