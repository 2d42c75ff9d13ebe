//! The repository benchmark: simulator speed and simulated serving metrics on three
//! workloads, attributed layer by layer.
//!
//! Usage: `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (normally through `run.py`, which builds this binary, pins it to one thread and adds
//! its peak resident memory).
//!
//! One invocation repeats the workload's simulation until `--seconds` of host time
//! have passed. Untraced repetitions give the end-to-end metrics; traced repetitions,
//! which time every call into the serving layers from outside (see [`probe`]), give
//! the per-layer metrics. Every repetition must simulate exactly the same outcome — the
//! traced ones included — and pass the conservation and breakdown checks, or the
//! command exits non-zero without printing a result. The last line of standard output
//! is one JSON object; the lines before it are the same metrics for people.

#![forbid(unsafe_code)]

mod clock;
mod probe;
mod workload;

use std::process::ExitCode;

use neo_serve::{Cdf, LatencySummary};

use crate::clock::Stamp;
use crate::probe::ProbeHandle;
use crate::workload::{
    build, merged, run_traced, run_untraced, Inputs, SimOutcome, System, Trail, Workload,
};

/// Untraced repetitions an end-to-end run makes at least, whatever `--seconds` says.
/// Kept low because one fleet repetition takes 6–15 s of host time.
const MIN_UNTRACED: usize = 2;
/// Traced/untraced pairs a per-layer run makes at least.
const MIN_PAIRS: usize = 1;
/// Set-ups timed (and discarded) before the repetitions, so `setup_s` is a median of
/// many samples even on the workload that fits only a few repetitions.
const SETUP_SAMPLES: usize = 20;

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How many samples the value summarises.
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name, value, unit, samples }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be a positive number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`\n{usage}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Args { workload, seed, seconds, trace })
        }
        _ => Err(usage.to_string()),
    }
}

/// Host timings of one repetition.
struct Timing {
    /// Input generation.
    gen_s: f64,
    /// Input generation plus system construction.
    setup_s: f64,
    /// The run phase: submission through drain.
    run_s: f64,
}

/// Generates the inputs and builds the system, timing both (`run_s` is left 0).
fn set_up(
    workload: Workload,
    seed: u64,
    traced: bool,
) -> (Inputs, System, Vec<ProbeHandle>, Timing) {
    let start = Stamp::now();
    let inputs = Inputs::generate(workload, seed);
    let gen_s = start.elapsed_s();
    let (system, probes) = build(workload, &inputs, traced);
    let timing = Timing { gen_s, setup_s: start.elapsed_s(), run_s: 0.0 };
    (inputs, system, probes, timing)
}

fn untraced_rep(workload: Workload, seed: u64) -> Result<(SimOutcome, Timing), String> {
    let (inputs, system, _, mut timing) = set_up(workload, seed, false);
    let run = Stamp::now();
    let outcome = run_untraced(system, &inputs)?;
    timing.run_s = run.elapsed_s();
    Ok((outcome, timing))
}

fn traced_rep(workload: Workload, seed: u64) -> Result<(SimOutcome, Timing, Vec<Metric>), String> {
    let (inputs, system, probes, mut timing) = set_up(workload, seed, true);
    let run = Stamp::now();
    let (outcome, trail) = run_traced(system, &inputs, &probes)?;
    timing.run_s = run.elapsed_s();
    let layers = layer_metrics(&inputs, &outcome, &timing, &trail, &merged(&probes))?;
    Ok((outcome, timing, layers))
}

fn median(values: &[f64]) -> f64 {
    Cdf::new(values.to_vec()).quantile(0.5).unwrap_or(f64::NAN)
}

/// A percentile is reported only when at least ten samples lie beyond it.
fn percentile(summary: &LatencySummary, q: f64, name: &'static str) -> Result<Metric, String> {
    if ((summary.count as f64) * (1.0 - q)).floor() < 10.0 {
        return Err(format!("{name}: {} samples support no p{}", summary.count, q * 100.0));
    }
    let value = if q == 0.5 { summary.p50 } else { summary.p99 };
    Ok(metric(name, value, "sim_s", summary.count))
}

/// Host-time percentile in microseconds, under the same ten-beyond rule.
fn host_percentile_us(samples_ns: &[u64], q: f64, name: &'static str) -> Result<Metric, String> {
    let n = samples_ns.len();
    if ((n as f64) * (1.0 - q)).floor() < 10.0 {
        return Err(format!("{name}: {n} samples support no p{}", q * 100.0));
    }
    let cdf = Cdf::new(samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
    Ok(metric(name, cdf.quantile(q).unwrap_or(f64::NAN), "us", n))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The end-to-end metrics of the untraced repetitions (all but `peak_rss_mib`, which
/// `run.py` measures from outside the process). `setups` holds every set-up time
/// measured, the repetitions' own included.
fn end_to_end(
    outcome: &SimOutcome,
    timings: &[Timing],
    setups: &[f64],
) -> Result<Vec<Metric>, String> {
    let reps = timings.len();
    let rates: Vec<f64> = timings.iter().map(|t| outcome.attempted as f64 / t.run_s).collect();
    let attempted = outcome.attempted;
    Ok(vec![
        metric("setup_s", median(setups), "s", setups.len()),
        metric("sim_req_per_s", median(&rates), "req/s", reps),
        percentile(&outcome.ttft, 0.5, "ttft_p50_s")?,
        percentile(&outcome.ttft, 0.99, "ttft_p99_s")?,
        percentile(&outcome.itl, 0.5, "itl_p50_s")?,
        percentile(&outcome.itl, 0.99, "itl_p99_s")?,
        metric(
            "decode_tok_per_s",
            ratio(outcome.output_tokens as f64, outcome.makespan),
            "tok/sim_s",
            outcome.output_tokens as usize,
        ),
        metric(
            "slo_attainment",
            ratio(outcome.slo_met as f64, attempted as f64),
            "ratio",
            attempted,
        ),
        metric(
            "completed_ratio",
            ratio(outcome.completed as f64, attempted as f64),
            "ratio",
            attempted,
        ),
    ])
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(
    inputs: &Inputs,
    outcome: &SimOutcome,
    timing: &Timing,
    trail: &Trail,
    sched: &probe::EngineProbe,
) -> Result<Vec<Metric>, String> {
    let sched_s = sched.call_ns.iter().sum::<u64>() as f64 / 1e9;
    let calls = sched.calls as usize;
    let busy = sched.calls - sched.idle_decisions;
    let mut out = vec![
        metric("workload.gen_s", timing.gen_s, "s", 1),
        metric("workload.requests", inputs.requests() as f64, "count", 1),
        metric("workload.prompt_tokens", inputs.prompt_tokens() as f64, "tokens", 1),
        metric("workload.output_tokens", inputs.output_tokens() as f64, "tokens", 1),
    ];

    // Cluster settle and routing: only the fleet has them.
    let (run_s, routes, retries, dropped, route_cv) = match &trail.fleet {
        Some(report) => {
            let routed: Vec<f64> = report.engines.iter().map(|e| e.routed as f64).collect();
            let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
            let var = routed.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>()
                / routed.len().max(1) as f64;
            (
                timing.run_s,
                report.routes.len(),
                report.retries,
                report.dropped,
                ratio(var.sqrt(), mean),
            )
        }
        None => (0.0, 0, 0, 0, 0.0),
    };
    out.extend([
        metric("cluster.run_s", run_s, "s", 1),
        metric("cluster.self_s", if trail.fleet.is_some() { run_s - sched_s } else { 0.0 }, "s", 1),
        metric("cluster.routes", routes as f64, "count", 1),
        metric("cluster.retries", retries as f64, "count", 1),
        metric("cluster.dropped", dropped as f64, "count", 1),
        metric("cluster.route_cv", route_cv, "ratio", 1),
    ]);

    // The serving loop: only a bare server's ticks are reachable from outside.
    if trail.fleet.is_none() {
        let ticks = trail.tick_ns.len();
        let tick_s = trail.tick_ns.iter().sum::<u64>() as f64 / 1e9;
        out.extend([
            metric("serve.submit_s", trail.submit_s, "s", 1),
            metric("serve.ticks", ticks as f64, "count", 1),
            metric("serve.tick_s", tick_s, "s", ticks),
            host_percentile_us(&trail.tick_ns, 0.5, "serve.tick_us_p50")?,
            host_percentile_us(&trail.tick_ns, 0.99, "serve.tick_us_p99")?,
            metric("serve.self_s", tick_s - sched_s, "s", ticks),
            metric("serve.dispatch_visits", trail.dispatch_visits as f64, "count", ticks),
            metric(
                "serve.visits_per_token",
                ratio(trail.dispatch_visits as f64, outcome.output_tokens as f64),
                "ratio",
                ticks,
            ),
            metric("serve.backlog_max", trail.backlog_max as f64, "count", ticks),
            metric(
                "serve.queue_depth_mean",
                ratio(trail.queue_depth_sum as f64, ticks as f64),
                "count",
                ticks,
            ),
        ]);
    } else {
        for (name, unit) in [
            ("serve.submit_s", "s"),
            ("serve.ticks", "count"),
            ("serve.tick_s", "s"),
            ("serve.tick_us_p50", "us"),
            ("serve.tick_us_p99", "us"),
            ("serve.self_s", "s"),
            ("serve.dispatch_visits", "count"),
            ("serve.visits_per_token", "ratio"),
            ("serve.backlog_max", "count"),
            ("serve.queue_depth_mean", "count"),
        ] {
            out.push(metric(name, 0.0, unit, 0));
        }
    }

    out.extend([
        metric("sched.calls", sched.calls as f64, "count", 1),
        metric("sched.s", sched_s, "s", calls),
        host_percentile_us(&sched.call_ns, 0.5, "sched.us_p50")?,
        host_percentile_us(&sched.call_ns, 0.99, "sched.us_p99")?,
        metric("sched.idle_decisions", sched.idle_decisions as f64, "count", calls),
        metric("sched.offload_decisions", sched.offload_decisions as f64, "count", calls),
        metric("sched.preemptions", sched.preemptions as f64, "count", calls),
        metric("sched.swap_out", sched.swap_out as f64, "count", calls),
        metric("sched.swap_in", sched.swap_in as f64, "count", calls),
        metric("engine.iterations", sched.calls as f64, "count", 1),
        metric("engine.busy_iterations", busy as f64, "count", 1),
        metric(
            "engine.batch_mean",
            ratio(sched.batch_sum as f64, busy as f64),
            "count",
            busy as usize,
        ),
        metric("engine.prefill_tokens", sched.prefill_tokens as f64, "tokens", 1),
        metric("engine.recompute_tokens", sched.recompute_tokens as f64, "tokens", 1),
        metric(
            "engine.prefill_useful_ratio",
            ratio(
                (sched.prefill_tokens - sched.recompute_tokens) as f64,
                sched.prefill_tokens as f64,
            ),
            "ratio",
            1,
        ),
        metric("cost.calls", sched.cost_calls as f64, "count", 1),
        metric(
            "cost.calls_per_sched",
            ratio(sched.cost_calls as f64, sched.calls as f64),
            "ratio",
            calls,
        ),
        metric("cost.s", sched.cost_ns as f64 / 1e9, "s", sched.cost_calls as usize),
        metric(
            "kv.gpu_occupancy_mean",
            ratio(sched.gpu_occupancy_sum, sched.calls as f64),
            "ratio",
            calls,
        ),
        metric(
            "kv.cpu_occupancy_mean",
            ratio(sched.cpu_occupancy_sum, sched.calls as f64),
            "ratio",
            calls,
        ),
        metric(
            "kv.prefix_hit_rate",
            ratio(trail.prefix_hit_tokens as f64, inputs.prompt_tokens() as f64),
            "ratio",
            1,
        ),
        metric("kv.cow_splits", trail.cow_splits as f64, "count", 1),
        metric("kv.demoted_disk", trail.demoted_disk as f64, "count", 1),
        metric("kv.promoted_disk", trail.promoted_disk as f64, "count", 1),
    ]);

    // The breakdown cross-check: the stages partition the simulated engine-seconds.
    // On a server every clock jump is observed, so nothing is left over; on the fleet
    // the time engines sat idle or down is not observable from outside and is what
    // `sim.unattributed_s` holds.
    let b = &trail.breakdown;
    let unattributed = trail.sim_base - b.partitioned();
    if trail.fleet.is_none() && unattributed.abs() > 1e-6 * trail.sim_base.max(1.0) {
        return Err(format!(
            "the stage breakdown sums to {} s of a {} s makespan",
            b.partitioned(),
            trail.sim_base
        ));
    }
    out.extend([
        metric("sim.gpu_linear_s", b.gpu_linear, "sim_s", 1),
        metric("sim.gpu_attn_s", b.gpu_attn, "sim_s", 1),
        metric("sim.bubble_s", b.bubble, "sim_s", 1),
        metric("sim.transfer_exposed_s", b.transfer_exposed, "sim_s", 1),
        metric("sim.disk_s", b.disk, "sim_s", 1),
        metric("sim.pre_post_s", b.pre_post, "sim_s", 1),
        metric("sim.idle_s", b.idle, "sim_s", 1),
        metric("sim.unattributed_s", unattributed, "sim_s", 1),
        metric("sim.cpu_attn_busy_s", b.cpu_attn_busy, "sim_s", 1),
    ]);
    Ok(out)
}

/// Per-layer metrics over several traced repetitions: each metric's median.
fn median_layers(reps: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = reps.first() else { return Vec::new() };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = reps.iter().map(|rep| rep[i].value).collect();
            Metric { value: median(&values), ..m.clone() }
        })
        .collect()
}

fn json_line(runs: usize, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number: {}", m.name, m.value));
        }
        fields
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {runs}, \"failed\": 0, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
    println!(
        "simbench: workload {} seed {} seconds {} trace {} RAYON_NUM_THREADS={threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // End-to-end runs spend the budget on untraced repetitions and add one traced
    // repetition for the transparency check; per-layer runs alternate the two so the
    // tracing overhead compares like with like.
    let start = Stamp::now();
    let samples = if args.trace { 0 } else { SETUP_SAMPLES };
    let mut setups: Vec<f64> =
        (0..samples).map(|_| set_up(args.workload, args.seed, false).3.setup_s).collect();
    let mut reference: Option<SimOutcome> = None;
    let mut untraced: Vec<Timing> = Vec::new();
    let mut traced: Vec<(Timing, Vec<Metric>)> = Vec::new();
    let mut check = |outcome: SimOutcome, what: &str| -> Result<(), String> {
        match &reference {
            None => reference = Some(outcome),
            Some(first) if *first != outcome => {
                return Err(format!(
                "{what} simulated a different outcome:\n  first: {first:?}\n  this:  {outcome:?}"
            ))
            }
            Some(_) => {}
        }
        Ok(())
    };
    loop {
        let (outcome, timing) = untraced_rep(args.workload, args.seed)?;
        check(outcome, "an untraced repetition")?;
        untraced.push(timing);
        if args.trace {
            let (outcome, timing, layers) = traced_rep(args.workload, args.seed)?;
            check(outcome, "a traced repetition")?;
            traced.push((timing, layers));
        }
        let enough =
            if args.trace { traced.len() >= MIN_PAIRS } else { untraced.len() >= MIN_UNTRACED };
        if enough && start.elapsed_s() >= args.seconds {
            break;
        }
    }
    if traced.is_empty() {
        let (outcome, timing, layers) = traced_rep(args.workload, args.seed)?;
        check(outcome, "the traced repetition")?;
        traced.push((timing, layers));
    }
    let outcome = reference.ok_or("no repetition ran")?;
    let runs = untraced.len() + traced.len();

    println!(
        "simulated: {} attempted, {} completed, {} refused, {} dropped (fail_ratio {}), \
         generator lateness 0 s; {} untraced + {} traced repetitions agree bit for bit",
        outcome.attempted,
        outcome.completed,
        outcome.refused,
        outcome.dropped,
        ratio((outcome.refused + outcome.dropped) as f64, outcome.attempted as f64),
        untraced.len(),
        traced.len(),
    );
    let metrics = if args.trace {
        let untraced_run = median(&untraced.iter().map(|t| t.run_s).collect::<Vec<_>>());
        let traced_run = median(&traced.iter().map(|(t, _)| t.run_s).collect::<Vec<_>>());
        let layers: Vec<Vec<Metric>> = traced.into_iter().map(|(_, layers)| layers).collect();
        let mut metrics = median_layers(&layers);
        metrics.push(metric(
            "trace.overhead_ratio",
            traced_run / untraced_run,
            "ratio",
            layers.len(),
        ));
        metrics
    } else {
        let rates: Vec<String> =
            untraced.iter().map(|t| format!("{:.0}", outcome.attempted as f64 / t.run_s)).collect();
        println!("sim_req_per_s by repetition: {}", rates.join(" "));
        setups.extend(untraced.iter().map(|t| t.setup_s));
        end_to_end(&outcome, &untraced, &setups)?
    };
    for m in &metrics {
        println!("{:<28} {:>18} {:<10} n={}", m.name, m.value, m.unit, m.samples);
    }
    println!("{}", json_line(runs, &metrics)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("simbench: error: {err}");
            ExitCode::FAILURE
        }
    }
}
