//! Integration tests of the event-driven serving loop: streaming order, mid-decode
//! cancellation (KV occupancy asserted through `neo-kvcache`), and admission
//! backpressure, across NEO and baseline policies on paper testbeds.

use std::cell::RefCell;
use std::rc::Rc;

use neo_bench::{Policy, Scenario};
use neo_core::config::MAX_WAITING_REQUESTS;
use neo_kvcache::Device;
use neo_serve::{run_online, RequestStatus, Server, TokenEvent};
use neo_workload::{azure_code_like, synthetic, ArrivalProcess};

#[test]
fn streaming_callbacks_fire_once_per_token_in_arrival_order() {
    let trace = azure_code_like(30, ArrivalProcess::Poisson { rate: 1.0 }, 11);
    // The T4 runs out of KV and recomputes preempted prompts: a re-prefilled request
    // emits through the prefill path, and no token may be missed or repeated. NEO only:
    // there a GPU-only policy admits request 0, whose context only the CPU pool can
    // hold, and never finishes.
    let cases = [
        (Scenario::a10g_8b(), Policy::Neo, false),
        (Scenario::a10g_8b(), Policy::VllmLike, false),
        (Scenario::t4_7b(), Policy::Neo, true),
    ];
    for (scenario, policy, recomputes) in cases {
        let mut server = Server::new(scenario.engine(policy));
        let log: Rc<RefCell<Vec<TokenEvent>>> = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for r in trace.requests() {
            let sink = Rc::clone(&log);
            handles.push(
                server
                    .submit_with_callback(r.arrival, r.prompt_len, r.output_len, move |t| {
                        sink.borrow_mut().push(*t)
                    })
                    .unwrap(),
            );
        }
        let report = server.run_until_idle();
        assert_eq!(report.completed, trace.len());
        if recomputes {
            let prompts: u64 = trace.requests().iter().map(|r| r.prompt_len as u64).sum();
            assert!(
                server.engine().total_prefill_tokens() > prompts,
                "the T4 case must recompute preempted prompts"
            );
        }

        let log = log.borrow();
        let expected_tokens: usize = trace.requests().iter().map(|r| r.output_len).sum();
        assert_eq!(log.len(), expected_tokens, "{}", policy.label());
        assert_eq!(report.streamed_tokens as usize, expected_tokens);
        // Emission times never go backwards, and each request sees its own tokens
        // exactly once, in index order, ending with is_last.
        assert!(log.windows(2).all(|w| w[0].time <= w[1].time));
        for (id, request) in trace.requests().iter().enumerate() {
            let mine: Vec<&TokenEvent> = log.iter().filter(|t| t.request_id == id as u64).collect();
            assert_eq!(mine.len(), request.output_len);
            assert!(mine.iter().enumerate().all(|(i, t)| t.index == i));
            assert!(mine.last().unwrap().is_last);
            assert!(mine[..mine.len() - 1].iter().all(|t| !t.is_last));
            // A request emits at most one token per iteration, so a token streamed late
            // would share its time with the next one.
            assert!(mine.windows(2).all(|w| w[0].time < w[1].time), "{}", policy.label());
            // The server's record of the stream, rebuilt from its runs, is what the
            // callback saw — across the restarts of recomputed requests too.
            let seen: Vec<f64> = mine.iter().map(|t| t.time).collect();
            assert_eq!(server.token_times(handles[id]), seen, "{}", policy.label());
        }
    }
}

#[test]
fn cancellation_mid_decode_frees_kv_blocks_on_the_t4() {
    // The memory-starved T4: cancelled KV must come back to the pools immediately,
    // otherwise abandoned requests would keep strangling the GPU cache.
    let scenario = Scenario::t4_7b();
    let mut server = Server::new(scenario.engine(Policy::Neo));
    let victims: Vec<_> = (0..8).map(|_| server.submit(0.0, 300, 4_000).unwrap()).collect();
    let survivor = server.submit(0.0, 300, 60).unwrap();

    // Run until every request occupies KV and has streamed at least one token.
    while server.engine().completed() == 0
        && !victims.iter().all(
            |&v| matches!(server.status(v), RequestStatus::Running { generated } if generated > 0),
        )
    {
        assert!(server.tick(), "work remains");
    }
    let kv = server.engine().kv();
    assert_eq!(kv.num_sequences(), 9);
    let free_before = kv.free_tokens(Device::Gpu) + kv.free_tokens(Device::Cpu);

    for &v in &victims {
        server.cancel_now(v);
    }
    assert!(server.tick());
    let kv = server.engine().kv();
    assert_eq!(kv.num_sequences(), 1, "all cancelled sequences must be released");
    assert!(
        kv.free_tokens(Device::Gpu) + kv.free_tokens(Device::Cpu) > free_before,
        "cancellation must return KV tokens to the pools"
    );

    let report = server.run_until_idle();
    assert_eq!(report.completed, 1);
    assert_eq!(report.cancelled, 8);
    assert!(matches!(server.status(survivor), RequestStatus::Finished { .. }));
    assert_eq!(server.engine().kv().num_sequences(), 0);
}

#[test]
fn admission_backpressure_delays_but_never_drops_requests() {
    // A burst larger than the waitqueue forces the server-side backlog to absorb it.
    let scenario = Scenario::a10g_8b();
    let trace = synthetic(MAX_WAITING_REQUESTS + 64, 32, 8, ArrivalProcess::AllAtOnce, 13);
    let mut server = Server::new(scenario.engine(Policy::Neo));
    let handles: Vec<_> = trace
        .requests()
        .iter()
        .map(|r| server.submit(r.arrival, r.prompt_len, r.output_len).unwrap())
        .collect();
    let report = server.run_until_idle();
    assert!(report.max_backlog >= 64, "the burst must exercise the backlog");
    assert_eq!(report.completed, trace.len(), "backpressure delays, never drops");
    assert_eq!(report.cancelled, 0);
    assert_eq!(server.backlog_len(), 0);
    for handle in handles {
        assert!(matches!(server.status(handle), RequestStatus::Finished { .. }));
    }
}

#[test]
fn run_online_matches_a_manual_event_loop_replay() {
    // The trace-replay wrapper and a hand-driven server must agree exactly: same
    // completions, same makespan, same latency metrics.
    let scenario = Scenario::a10g_8b();
    let trace = azure_code_like(40, ArrivalProcess::Poisson { rate: 1.5 }, 17);
    let result = run_online(scenario.engine(Policy::Neo), &trace);

    let mut server = Server::new(scenario.engine(Policy::Neo));
    let handles: Vec<_> = trace
        .requests()
        .iter()
        .map(|r| server.submit(r.arrival, r.prompt_len, r.output_len).unwrap())
        .collect();
    let report = server.run_until_idle();

    assert_eq!(result.completed, report.completed);
    assert_eq!(result.makespan, report.makespan);
    assert_eq!(result.ttft.mean, report.ttft.unwrap().mean);
    assert_eq!(result.itl.unwrap().p99, report.itl.unwrap().p99);
    assert_eq!(result.offload_fraction, report.offload_fraction);

    // Per-token latency is each request's (finish − arrival) / output length, taken in
    // completion order: finish time, ties by id.
    let mut finished: Vec<(f64, u64, f64)> = trace
        .requests()
        .iter()
        .zip(&handles)
        .map(|(request, &handle)| match server.status(handle) {
            RequestStatus::Finished { finish_time } => (
                finish_time,
                handle.id(),
                (finish_time - request.arrival) / request.output_len as f64,
            ),
            other => panic!("request {} did not finish: {other:?}", handle.id()),
        })
        .collect();
    finished.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let by_hand: Vec<f64> = finished.iter().map(|&(.., per_token)| per_token).collect();
    assert_eq!(result.per_token_samples, by_hand);
}

#[test]
fn ttft_and_itl_degrade_gracefully_under_load() {
    // Sanity: the streaming metrics respond to load the way queueing theory says they
    // should — higher offered rate, no lower TTFT.
    let scenario = Scenario::a10g_8b();
    let run = |rate: f64| {
        let trace = azure_code_like(40, ArrivalProcess::Poisson { rate }, 19);
        run_online(scenario.engine(Policy::VllmLike), &trace)
    };
    let low = run(0.3);
    let high = run(8.0);
    assert!(
        high.ttft.mean >= low.ttft.mean * 0.8,
        "TTFT should not improve under heavy load: low {:.3}s vs high {:.3}s",
        low.ttft.mean,
        high.ttft.mean
    );
    assert!(low.itl.is_some() && high.itl.is_some());
}
