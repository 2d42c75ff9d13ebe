//! The three benchmark workloads: how each generates its inputs from a seed, builds
//! the system under test, and runs it untraced or traced.
//!
//! All three are open loop: every arrival is generated up front and submitted as a
//! timestamped event before the run starts, so latency is measured from each
//! request's due time and the generator is never late. Why each workload exists is in
//! this directory's README.

use neo_bench::{Policy, Scenario};
use neo_cluster::{Cluster, ClusterConfig, ClusterReport, Discipline, FaultPlan};
use neo_core::{Engine, EngineConfig, IterationReport, Scheduler};
use neo_kvcache::TokenRun;
use neo_serve::{LatencySummary, RequestHandle, RequestStatus, Server};
use neo_workload::{azure_code_like, fleet_mix, multi_turn_chat, ArrivalProcess, ChatConfig};
use neo_workload::{SloPolicy, Trace, TraceRequest};

use crate::clock::Stamp;
use crate::probe::{lock, Breakdown, EngineProbe, Priced, ProbeHandle, TimedScheduler};

/// The completion deadline every workload is judged by: a 120 s budget for queueing and
/// prefill plus 1 s per output token. The fleet enforces it (late requests are shed);
/// the single-server workloads only score against it. A tighter base would leave the
/// overload's attainment to its first few hundred requests and make it swing with the
/// seed.
pub const SLO: SloPolicy = SloPolicy { base_s: 120.0, per_output_token_s: 1.0 };

/// Requests in `a10g_ac_overload`: enough for the waitqueue to fill to
/// `max_waiting_requests` and stay there for most of the run.
const AC_REQUESTS: usize = 4000;
/// Offered load of `a10g_ac_overload`, about twice what the A10G sustains.
const AC_RATE: f64 = 3.0;
/// Chat sessions in `a10g_chat_prefix` (4 requests each).
const CHAT_SESSIONS: usize = 1500;
/// Requests in `fleet64_faults`: about 1000 simulated seconds, so the slowest T4's drain
/// after the last arrival (100–200 s) stays a small share of the makespan.
const FLEET_REQUESTS: usize = 64_000;
/// Engines in `fleet64_faults`.
const FLEET_ENGINES: usize = 64;
/// Aggregate arrival rate of `fleet64_faults`, in requests per second.
const FLEET_RATE: f64 = 64.0;
/// Seeded fail-stop outages injected into `fleet64_faults`, and their length.
const FLEET_OUTAGES: usize = 16;
const FLEET_OUTAGE_S: f64 = 5.0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One A10G server, NEO, AC-like trace at about twice its capacity.
    AcOverload,
    /// One A10G server, NEO, prefix cache and disk tier, multi-turn chat.
    ChatPrefix,
    /// A 64-engine heterogeneous NEO fleet with seeded outages and failover.
    Fleet64Faults,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::AcOverload, Workload::ChatPrefix, Workload::Fleet64Faults];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AcOverload => "a10g_ac_overload",
            Workload::ChatPrefix => "a10g_chat_prefix",
            Workload::Fleet64Faults => "fleet64_faults",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn engine_config(self) -> EngineConfig {
        match self {
            Workload::ChatPrefix => {
                EngineConfig { prefix_cache: true, disk_tier: true, ..EngineConfig::default() }
            }
            Workload::AcOverload | Workload::Fleet64Faults => EngineConfig::default(),
        }
    }
}

/// One request a server workload submits.
#[derive(Debug, Clone)]
pub struct Submission {
    arrival: f64,
    prompt_len: usize,
    output_len: usize,
    /// Prompt identity (empty for opaque prompts).
    runs: Vec<TokenRun>,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Requests for a single server, in arrival order.
    Server(Vec<Submission>),
    /// A fleet's arrival trace and its fault plan.
    Fleet {
        /// Frontend arrivals.
        trace: Trace,
        /// Seeded outages.
        faults: FaultPlan,
    },
}

impl Inputs {
    /// Generates `workload`'s inputs; the same seed gives the same inputs.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::AcOverload => {
                let trace =
                    azure_code_like(AC_REQUESTS, ArrivalProcess::Poisson { rate: AC_RATE }, seed);
                Inputs::Server(
                    trace
                        .requests()
                        .iter()
                        .map(|r| Submission {
                            arrival: r.arrival,
                            prompt_len: r.prompt_len,
                            output_len: r.output_len,
                            runs: Vec::new(),
                        })
                        .collect(),
                )
            }
            Workload::ChatPrefix => {
                let chat = ChatConfig {
                    sessions: CHAT_SESSIONS,
                    turns: 4,
                    system_len: 1024,
                    user_len: 96,
                    output_len: 48,
                    shared_system_prob: 0.5,
                    session_rate: 1.0,
                    turn_gap: 10.0,
                };
                Inputs::Server(
                    multi_turn_chat(&chat, seed)
                        .requests()
                        .iter()
                        .map(|r| Submission {
                            arrival: r.arrival,
                            prompt_len: r.prompt_len(),
                            output_len: r.output_len,
                            runs: r.runs.clone(),
                        })
                        .collect(),
                )
            }
            Workload::Fleet64Faults => {
                // The fleet mix at 1 req/s, compressed in time to the target rate.
                let trace: Trace = fleet_mix(FLEET_REQUESTS, 0.35, 1.0, seed)
                    .requests()
                    .iter()
                    .map(|r| TraceRequest { arrival: r.arrival / FLEET_RATE, ..*r })
                    .collect();
                let horizon = trace.requests().last().map_or(1.0, |r| r.arrival);
                let faults = FaultPlan::seeded_outages(
                    FLEET_ENGINES,
                    horizon,
                    FLEET_OUTAGES,
                    FLEET_OUTAGE_S,
                    seed ^ 0x5EED_FA17,
                );
                Inputs::Fleet { trace, faults }
            }
        }
    }

    /// Requests the run will attempt.
    pub fn requests(&self) -> usize {
        match self {
            Inputs::Server(requests) => requests.len(),
            Inputs::Fleet { trace, .. } => trace.len(),
        }
    }

    /// Σ prompt tokens over all requests.
    pub fn prompt_tokens(&self) -> u64 {
        match self {
            Inputs::Server(requests) => requests.iter().map(|r| r.prompt_len as u64).sum(),
            Inputs::Fleet { trace, .. } => {
                trace.requests().iter().map(|r| r.prompt_len as u64).sum()
            }
        }
    }

    /// Σ output tokens over all requests.
    pub fn output_tokens(&self) -> u64 {
        match self {
            Inputs::Server(requests) => requests.iter().map(|r| r.output_len as u64).sum(),
            Inputs::Fleet { trace, .. } => {
                trace.requests().iter().map(|r| r.output_len as u64).sum()
            }
        }
    }
}

/// The system under test, built and ready to run.
pub enum System {
    /// One server.
    Server(Box<Server>),
    /// A fleet.
    Fleet(Box<Cluster>),
}

/// Builds `workload`'s system for `inputs`. With `traced`, every engine's scheduler is
/// wrapped in a [`TimedScheduler`] and the probes are returned in engine order.
pub fn build(workload: Workload, inputs: &Inputs, traced: bool) -> (System, Vec<ProbeHandle>) {
    let config = workload.engine_config();
    let mut probes = Vec::new();
    let mut engine = |scenario: &Scenario| -> Engine {
        let scheduler = Policy::Neo.scheduler();
        let scheduler: Box<dyn Scheduler> = if traced {
            let exact = scenario.cost_model().with_max_batch_tokens(config.max_batch_tokens);
            let (timed, probe) =
                TimedScheduler::new(scheduler, exact, config.layerwise_swap_overlap);
            probes.push(probe);
            Box::new(timed)
        } else {
            scheduler
        };
        Engine::new(scenario.cost_model(), config.clone(), scheduler)
    };
    let system = match inputs {
        Inputs::Server(_) => System::Server(Box::new(Server::new(engine(&Scenario::a10g_8b())))),
        Inputs::Fleet { trace, faults } => {
            let pattern = [
                Scenario::t4_7b(),
                Scenario::a10g_8b(),
                Scenario::h100_70b(),
                Scenario::h100_70b(),
            ];
            let fleet: Vec<(String, Engine)> = (0..FLEET_ENGINES)
                .map(|i| {
                    let scenario = &pattern[i % pattern.len()];
                    (format!("{}#{i}", scenario.name), engine(scenario))
                })
                .collect();
            let config = ClusterConfig {
                discipline: Discipline::LeastKv,
                fault_plan: faults.clone(),
                failover: true,
                slo: Some(SLO),
                ..ClusterConfig::default()
            };
            System::Fleet(Box::new(Cluster::new(fleet, trace, config)))
        }
    };
    (system, probes)
}

/// Everything a run simulated that an end-to-end metric reads. The transparency check
/// requires the traced and untraced runs to produce equal outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests refused at submission (`AdmitError`).
    pub refused: usize,
    /// Requests shed after admission.
    pub dropped: usize,
    /// Requests that produced their full output.
    pub completed: usize,
    /// Requests that finished by their [`SLO`] deadline.
    pub slo_met: usize,
    /// Output tokens of the run (for the fleet: of completed requests).
    pub output_tokens: u64,
    /// Simulated makespan, in seconds.
    pub makespan: f64,
    /// Time to first token, from each request's due time.
    pub ttft: LatencySummary,
    /// Inter-token gaps.
    pub itl: LatencySummary,
}

/// What a traced run recorded besides its outcome.
pub struct Trail {
    /// Host seconds inside `Server::submit` (0 for the fleet).
    pub submit_s: f64,
    /// Host nanoseconds of each `Server::tick` call (empty for the fleet).
    pub tick_ns: Vec<u64>,
    /// Σ live engine requests after each tick: what the token dispatch walks.
    pub dispatch_visits: u64,
    /// Σ server queue depth after each tick.
    pub queue_depth_sum: u64,
    /// Highest admission backlog.
    pub backlog_max: usize,
    /// Requests demoted to and promoted from the disk tier.
    pub demoted_disk: u64,
    /// See [`Trail::demoted_disk`].
    pub promoted_disk: u64,
    /// Prompt tokens served from the prefix cache.
    pub prefix_hit_tokens: u64,
    /// Copy-on-write block splits.
    pub cow_splits: u64,
    /// The fleet's report (`None` for a server).
    pub fleet: Option<ClusterReport>,
    /// Simulated engine-seconds the breakdown partitions: the makespan for a server,
    /// Σ engine clocks for the fleet.
    pub sim_base: f64,
    /// The simulated-time breakdown, summed over engines; for a server it includes the
    /// clock jumps to the next arrival as idle time.
    pub breakdown: Breakdown,
}

/// Runs `system` with no tracing.
pub fn run_untraced(system: System, inputs: &Inputs) -> Result<SimOutcome, String> {
    match (system, inputs) {
        (System::Server(mut server), Inputs::Server(requests)) => {
            let (handles, refused) = submit_all(&mut server, requests);
            while server.tick() {}
            server_outcome(&server, requests, &handles, refused)
        }
        (System::Fleet(cluster), Inputs::Fleet { trace, .. }) => {
            fleet_outcome(&cluster.run(), trace)
        }
        _ => Err("system and inputs belong to different workloads".to_string()),
    }
}

/// Runs `system` with timing at every public call into the serving layers; `probes`
/// are the scheduler probes [`build`] returned for it.
pub fn run_traced(
    system: System,
    inputs: &Inputs,
    probes: &[ProbeHandle],
) -> Result<(SimOutcome, Trail), String> {
    match (system, inputs) {
        (System::Server(server), Inputs::Server(requests)) => {
            let [probe] = probes else { return Err("a server has exactly one probe".to_string()) };
            run_server_traced(*server, requests, probe)
        }
        (System::Fleet(cluster), Inputs::Fleet { trace, .. }) => {
            let report = cluster.run();
            let outcome = fleet_outcome(&report, trace)?;
            let mut breakdown = Breakdown::default();
            for (probe, engine) in probes.iter().zip(&report.engines) {
                let probe = lock(probe);
                if let Some(err) = &probe.error {
                    return Err(format!("engine {}: {err}", engine.name));
                }
                // Every engine's clock covers at least the iterations it ran.
                let busy = probe.breakdown.partitioned();
                if busy > engine.makespan + 1e-9 * engine.makespan.max(1.0) {
                    return Err(format!(
                        "engine {}: priced iterations take {busy} s but its clock reads {} s",
                        engine.name, engine.makespan
                    ));
                }
                breakdown.add(&probe.breakdown);
            }
            let trail = Trail {
                submit_s: 0.0,
                tick_ns: Vec::new(),
                dispatch_visits: 0,
                queue_depth_sum: 0,
                backlog_max: 0,
                demoted_disk: 0,
                promoted_disk: 0,
                prefix_hit_tokens: 0,
                cow_splits: 0,
                sim_base: report.engines.iter().map(|e| e.makespan).sum(),
                breakdown,
                fleet: Some(report),
            };
            Ok((outcome, trail))
        }
        _ => Err("system and inputs belong to different workloads".to_string()),
    }
}

/// A submitted request: its handle, due time and output length.
type Handle = (RequestHandle, f64, usize);

fn submit_all(server: &mut Server, requests: &[Submission]) -> (Vec<Handle>, usize) {
    let mut handles = Vec::with_capacity(requests.len());
    let mut refused = 0;
    for r in requests {
        let submitted = if r.runs.is_empty() {
            server.submit(r.arrival, r.prompt_len, r.output_len)
        } else {
            server.submit_with_runs(r.arrival, r.runs.clone(), r.output_len)
        };
        match submitted {
            Ok(handle) => handles.push((handle, r.arrival, r.output_len)),
            Err(_) => refused += 1,
        }
    }
    (handles, refused)
}

fn run_server_traced(
    mut server: Server,
    requests: &[Submission],
    probe: &ProbeHandle,
) -> Result<(SimOutcome, Trail), String> {
    let start = Stamp::now();
    let (handles, refused) = submit_all(&mut server, requests);
    let submit_s = start.elapsed_s();

    let mut tick_ns = Vec::new();
    let mut dispatch_visits = 0u64;
    let mut queue_depth_sum = 0u64;
    let mut demoted_disk = 0u64;
    let mut promoted_disk = 0u64;
    let mut jumps = 0.0;
    loop {
        let before = server.now();
        let start = Stamp::now();
        let more = server.tick();
        tick_ns.push(start.elapsed_ns());
        if !more {
            break;
        }
        let report = server.last_iteration().ok_or("a tick ran no iteration")?;
        let priced = {
            let mut probe = lock(probe);
            match (probe.last.take(), &probe.error) {
                (_, Some(err)) => return Err(err.clone()),
                (Some(priced), None) => priced,
                (None, None) => return Err("an iteration was never priced".to_string()),
            }
        };
        check_iteration(&report, &priced)?;
        jumps += report.start_time - before;
        dispatch_visits += server.engine().live_requests() as u64;
        queue_depth_sum += server.queue_depth() as u64;
        demoted_disk += report.demoted_disk as u64;
        promoted_disk += report.promoted_disk as u64;
    }

    let outcome = server_outcome(&server, requests, &handles, refused)?;
    let mut breakdown = lock(probe).breakdown;
    breakdown.idle += jumps;
    let engine = server.engine();
    let trail = Trail {
        submit_s,
        tick_ns,
        dispatch_visits,
        queue_depth_sum,
        backlog_max: server.max_backlog(),
        demoted_disk,
        promoted_disk,
        prefix_hit_tokens: engine.prefix_hit_tokens() as u64,
        cow_splits: engine.cow_splits() as u64,
        fleet: None,
        sim_base: outcome.makespan,
        breakdown,
    };
    Ok((outcome, trail))
}

/// The breakdown cross-check, per iteration: the re-priced decision must be exactly
/// what the engine charged, under the assumptions the pricing made.
fn check_iteration(report: &IterationReport, priced: &Priced) -> Result<(), String> {
    let moves = (report.swapped_out, report.swapped_in, report.demoted_disk, report.promoted_disk);
    let planned = (priced.swap_out, priced.swap_in, priced.demoted, priced.promoted);
    let tolerance = 1e-9 * report.start_time.abs().max(1.0);
    if report.idle != priced.idle
        || (!report.idle && report.mode != priced.mode)
        || moves != planned
        || (report.duration - priced.duration).abs() > tolerance
    {
        return Err(format!(
            "iteration {} re-priced as {priced:?} but the engine reported {report:?}",
            report.iteration
        ));
    }
    Ok(())
}

fn server_outcome(
    server: &Server,
    requests: &[Submission],
    handles: &[Handle],
    refused: usize,
) -> Result<SimOutcome, String> {
    let report = server.report();
    let attempted = requests.len();
    if handles.len() + refused != attempted {
        return Err(format!(
            "{} submitted + {refused} refused != {attempted} attempted",
            handles.len()
        ));
    }
    if report.completed + report.dropped + report.cancelled + refused != attempted {
        return Err(format!(
            "conservation: {} completed + {} dropped + {} cancelled + {refused} refused != {attempted} attempted",
            report.completed, report.dropped, report.cancelled
        ));
    }
    let generated = server.engine().total_decode_tokens();
    if report.streamed_tokens != generated {
        return Err(format!(
            "conservation: {} tokens streamed but {generated} generated",
            report.streamed_tokens
        ));
    }
    let slo_met = handles
        .iter()
        .filter(|&&(handle, arrival, output_len)| {
            matches!(server.status(handle),
                RequestStatus::Finished { finish_time } if finish_time <= SLO.deadline(arrival, output_len))
        })
        .count();
    Ok(SimOutcome {
        attempted,
        refused,
        dropped: report.dropped + report.cancelled,
        completed: report.completed,
        slo_met,
        output_tokens: report.streamed_tokens,
        makespan: report.makespan,
        ttft: report.ttft.ok_or("no request produced a token")?,
        itl: report.itl.ok_or("no request produced a second token")?,
    })
}

fn fleet_outcome(report: &ClusterReport, trace: &Trace) -> Result<SimOutcome, String> {
    let attempted = trace.len();
    if report.requests != attempted {
        return Err(format!("the fleet saw {} requests of {attempted} submitted", report.requests));
    }
    if report.completed + report.dropped != attempted {
        return Err(format!(
            "conservation: {} completed + {} dropped != {attempted} attempted",
            report.completed, report.dropped
        ));
    }
    // Dropped requests' partial output is discarded, so the stream carries exactly the
    // completed requests' outputs.
    let mut dropped = vec![false; attempted];
    for drop in &report.drops {
        let slot = dropped.get_mut(drop.id as usize).ok_or("drop record outside the trace")?;
        *slot = true;
    }
    let generated: u64 = trace
        .requests()
        .iter()
        .zip(&dropped)
        .filter(|(_, &dropped)| !dropped)
        .map(|(r, _)| r.output_len as u64)
        .sum();
    if report.streamed_tokens != generated {
        return Err(format!(
            "conservation: {} tokens streamed but completed requests generated {generated}",
            report.streamed_tokens
        ));
    }
    Ok(SimOutcome {
        attempted,
        refused: 0,
        dropped: report.dropped,
        completed: report.completed,
        // The fleet sheds every request its deadline passes, so completing is meeting it.
        slo_met: report.completed,
        output_tokens: report.streamed_tokens,
        makespan: report.makespan,
        ttft: report.ttft.ok_or("no request produced a token")?,
        itl: report.itl.ok_or("no request produced a second token")?,
    })
}

/// The probes' counters merged over a fleet's engines.
pub fn merged(probes: &[ProbeHandle]) -> EngineProbe {
    let mut total = EngineProbe::default();
    for probe in probes {
        let probe = lock(probe);
        total.calls += probe.calls;
        total.call_ns.extend_from_slice(&probe.call_ns);
        total.idle_decisions += probe.idle_decisions;
        total.offload_decisions += probe.offload_decisions;
        total.preemptions += probe.preemptions;
        total.swap_out += probe.swap_out;
        total.swap_in += probe.swap_in;
        total.batch_sum += probe.batch_sum;
        total.prefill_tokens += probe.prefill_tokens;
        total.recompute_tokens += probe.recompute_tokens;
        total.cost_calls += probe.cost_calls;
        total.cost_ns += probe.cost_ns;
        total.gpu_occupancy_sum += probe.gpu_occupancy_sum;
        total.cpu_occupancy_sum += probe.cpu_occupancy_sum;
    }
    total
}
