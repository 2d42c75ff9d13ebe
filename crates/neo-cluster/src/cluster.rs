//! The fleet simulation: N servers, N links and a router under one clock.
//!
//! # Anatomy
//!
//! ```text
//!                        ┌─ link 0 ─► Server 0 (Engine 0)
//!   Trace ──► Router ────┼─ link 1 ─► Server 1 (Engine 1)
//!  (arrivals) (Discipline)└─ link 2 ─► Server 2 (Engine 2)
//! ```
//!
//! All of it lives in one [`Cluster`], and [`Cluster::run`] is one loop: take the
//! earliest instant at which anything has work (`next_due`) and `settle` it, until
//! nothing is due. A settle pass processes every event at its instant in a fixed kind
//! order (faults, then link deliveries, then engine steps, then retry re-dispatch,
//! then frontend arrivals, then central dispatch), so same-instant events always meet
//! in the same order and every output is a function of the trace, the fleet and the
//! configuration alone.
//!
//! A wake-up index keyed `(due, engine)` holds each slot's earliest work: the earlier
//! of its link head and its server's next activity. The cluster re-keys a slot
//! wherever it changes one (a bind, a delivery, a poll, a drop, a failure or a
//! recovery), so finding the next instant reads the index's first entry, and a pass
//! visits only the slots due at its instant, in ascending engine id — the fleet's
//! cost per event follows the engines that have work, not the fleet's size.
//!
//! # Failure model
//!
//! A [`FaultPlan`] injects timed faults as first-class events: engines fail-stop
//! (losing their KV and orphaning everything they held), recover empty, links degrade
//! and restore, and per-request deadlines expire. On an engine death the router marks
//! the slot down and, when `failover` is enabled, re-dispatches the orphans to
//! surviving engines with capped exponential backoff under a per-request retry
//! budget — a retried request restarts from scratch (recompute, not migration) and
//! its partial output is discarded. Requests that exhaust the budget, miss their SLO
//! deadline, or fit no live engine are *shed* with a typed [`DropReason`]; every
//! request therefore reaches exactly one terminal state (completed or dropped), the
//! conservation contract `tests/fault_determinism.rs` proves.
//!
//! # Time semantics
//!
//! Engine iterations are atomic ([`neo_serve::Server::poll`]): an iteration starting
//! at or before the settled instant runs to completion, which may carry that engine's
//! clock past it. Requests delivered to an engine whose clock has run ahead are
//! admitted at the engine's current time — exactly the behaviour of a real engine that
//! was mid-iteration when the request landed. Cluster-level TTFT is therefore measured
//! from the *frontend* arrival, by folding the token streams each server keeps, never
//! from the server-local admission time.

use std::cmp::Ordering;
use std::collections::{BTreeSet, VecDeque};

use neo_core::Engine;
use neo_serve::metrics::{LatencyFold, LatencySummary};
use neo_serve::{DropReason, RequestHandle, RequestStatus, Server};
use neo_sim::event::SerialLine;
use neo_workload::{SloPolicy, Trace, TraceRequest};
use serde::Serialize;

use crate::discipline::Discipline;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};

/// Configuration of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// How the router binds arrivals to engines.
    pub discipline: Discipline,
    /// `CFcfs` only: a request is dispatched once some engine's outstanding work
    /// (queue depth + in-flight on its link) is below this window. 1 would starve
    /// continuous batching; a few requests keep every engine's batch fed while the
    /// central queue stays work-conserving.
    pub dispatch_window: usize,
    /// `DFcfs` only: remap one indirection-table entry from the deepest to the
    /// shallowest engine every this many arrivals (0 = never rebalance).
    pub rebalance_every: usize,
    /// `DFcfs` only: indirection-table entries per engine (the table has
    /// `engines × this` slots, initialized round-robin).
    pub table_entries_per_engine: usize,
    /// Propagation latency of each frontend→engine link, in seconds.
    pub link_latency_s: f64,
    /// Bandwidth of each frontend→engine link, in bytes per second.
    pub link_bytes_per_s: f64,
    /// Request payload priced on the link: bytes per prompt token.
    pub bytes_per_token: f64,
    /// Settle passes (one per processed instant) allowed in a row without progress —
    /// no polled engine emitted a token and no request was shed (livelock guard).
    pub max_events: u64,
    /// Timed faults to inject. The default (empty) plan leaves every output
    /// byte-identical to a faultless run.
    pub fault_plan: FaultPlan,
    /// Whether orphans of a dead engine are re-dispatched to survivors. With
    /// failover off, every request a failed engine held is shed on the spot.
    pub failover: bool,
    /// Re-dispatches allowed per request beyond its first dispatch; the attempt
    /// after the budget is exhausted is shed as [`DropReason::RetriesExhausted`].
    pub retry_budget: u32,
    /// Backoff before the first re-dispatch, in seconds (doubled per retry).
    pub backoff_base_s: f64,
    /// Ceiling on the exponential backoff, in seconds.
    pub backoff_cap_s: f64,
    /// Completion-deadline policy. `None` disables deadline shedding; with a policy,
    /// every request gets a `DeadlineExpire` fault at its deadline and is shed
    /// (wherever it is) if still unfinished then.
    pub slo: Option<SloPolicy>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            discipline: Discipline::RoundRobin,
            dispatch_window: 4,
            rebalance_every: 32,
            table_entries_per_engine: 4,
            // A 10 Gbit/s datacenter hop with ~200 µs of RPC latency.
            link_latency_s: 2e-4,
            link_bytes_per_s: 1.25e9,
            bytes_per_token: 4.0,
            max_events: 5_000_000,
            fault_plan: FaultPlan::default(),
            failover: true,
            retry_budget: 3,
            backoff_base_s: 0.05,
            backoff_cap_s: 1.0,
            slo: None,
        }
    }
}

/// One shed request: when it was dropped and why ([`DropReason::label`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DropRecord {
    /// Frontend request id.
    pub id: u64,
    /// Simulated instant the request was shed.
    pub time: f64,
    /// Drop reason label (snake_case, from [`DropReason::label`]).
    pub reason: String,
}

/// One routing decision, in binding order — the pinned determinism surface.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RouteRecord {
    /// Frontend request id (its index in the arrival trace).
    pub id: u64,
    /// Binding time: the frontend arrival for early-binding disciplines, the central
    /// dispatch instant for `CFcfs`.
    pub time: f64,
    /// Engine the request was bound to.
    pub engine: usize,
}

/// Per-engine slice of a [`ClusterReport`].
#[derive(Debug, Clone, Serialize)]
pub struct EngineSummary {
    /// Engine name as registered with [`Cluster::new`].
    pub name: String,
    /// Requests routed to this engine.
    pub routed: usize,
    /// Requests it completed.
    pub completed: usize,
    /// Tokens it streamed.
    pub streamed_tokens: u64,
    /// Requests dropped while it held them (faults, deadlines, shedding).
    pub dropped: usize,
    /// Its engine clock when the cluster drained.
    pub makespan: f64,
    /// Fraction of its busy iterations that offloaded attention to the CPU.
    pub offload_fraction: f64,
}

/// What a cluster run did, summarised when every request drained.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterReport {
    /// Discipline label (resolvable via [`Discipline::from_label`]).
    pub discipline: String,
    /// Requests in the arrival trace.
    pub requests: usize,
    /// Requests completed across the fleet (goodput; `requests - dropped`).
    pub completed: usize,
    /// Requests shed with a typed drop reason.
    pub dropped: usize,
    /// Re-dispatches performed by the failover path (beyond first dispatches).
    pub retries: u64,
    /// Time the last engine finished.
    pub makespan: f64,
    /// Tokens streamed across the fleet.
    pub streamed_tokens: u64,
    /// Time-to-first-token measured from the *frontend* arrival.
    pub ttft: Option<LatencySummary>,
    /// Inter-token gaps, per request, across the fleet.
    pub itl: Option<LatencySummary>,
    /// `DFcfs`: indirection-table remaps performed.
    pub rebalances: usize,
    /// `CFcfs`: high-water mark of the central queue.
    pub max_central_queue: usize,
    /// Per-engine summaries, in registration order.
    pub engines: Vec<EngineSummary>,
    /// Every routing decision, in binding order (retries append new records).
    pub routes: Vec<RouteRecord>,
    /// Every shed request, in drop order.
    pub drops: Vec<DropRecord>,
}

/// One engine's seat in the cluster: its server, its link, and the requests in
/// flight between router and engine.
struct Slot {
    name: String,
    server: Server,
    link: SerialLine,
    /// `(deliver_at, id)` in delivery order (monotone: the link is serial FIFO).
    inflight: VecDeque<(f64, u64)>,
    routed: usize,
    /// Largest context (prompt + output) any pool of this engine can ever hold — the
    /// admissibility bound for routing.
    capacity: usize,
    /// KV capacity of the engine's tightest tensor-parallel rank, in tokens (at least
    /// 1): the denominator of its `LeastKv` score.
    kv_capacity: usize,
    /// The slot's key in the wake-up index: the earlier of its link head and its
    /// server's next activity, `None` while it has neither.
    due: Option<Due>,
}

/// An instant ordered by [`f64::total_cmp`], so it can key the wake-up index.
#[derive(Debug, Clone, Copy)]
struct Due(f64);

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Due {}

impl Ord for Due {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Where a request currently sits — the index the failover path uses to find and
/// detach it. A request is complete once the server it sits on has finished it.
#[derive(Debug, Clone, Copy)]
enum Site {
    /// Not yet routed, or detached and about to be re-homed.
    Idle,
    /// On engine `e`'s frontend link.
    OnLink(usize),
    /// Admitted by engine `e`'s server under this handle.
    OnServer(usize, RequestHandle),
    /// In the `CFcfs` central queue.
    CentralQueue,
    /// Waiting out a failover backoff.
    RetryQueue,
    /// Shed with a typed reason (terminal).
    Dropped,
}

/// One parked failover candidate: re-dispatchable from `ready_at`.
#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    ready_at: f64,
    id: u64,
}

/// Router bookkeeping shared by all disciplines.
struct RouterState {
    discipline: Discipline,
    rr_next: usize,
    /// `CFcfs` central FIFO of frontend ids.
    central: VecDeque<u64>,
    max_central: usize,
    /// `DFcfs` indirection table: entry → engine.
    table: Vec<usize>,
    seq: usize,
    arrivals_since_rebalance: usize,
    rebalances: usize,
}

/// A routed fleet of engines, ready to run a trace to completion.
pub struct Cluster {
    slots: Vec<Slot>,
    /// Wake-up index: `(due, engine)` for every slot that has work, earliest first.
    wake: BTreeSet<(Due, usize)>,
    /// The slots the latest settle pass visited, in ascending engine id (kept to reuse
    /// its allocation).
    due_slots: Vec<usize>,
    /// The arrival trace; a request's frontend id is its position.
    requests: Vec<TraceRequest>,
    /// Cursor into `requests` (sorted by arrival): the next frontend arrival.
    next_arrival: usize,
    router: RouterState,
    records: Vec<RouteRecord>,
    /// Fault plan (plus SLO deadline events), sorted by time; `fault_cursor` is the
    /// next unapplied event.
    fault_events: Vec<FaultEvent>,
    fault_cursor: usize,
    /// Where each frontend id currently sits.
    site: Vec<Site>,
    /// Dispatches so far per request (first dispatch counts; retries increment).
    attempts: Vec<u32>,
    /// Completion deadline per request (`f64::INFINITY` without an SLO policy).
    deadline: Vec<f64>,
    /// Orphans waiting out their failover backoff.
    retry_queue: Vec<RetryEntry>,
    /// Every shed request, in drop order.
    drops: Vec<DropRecord>,
    /// Re-dispatches performed (beyond first dispatches).
    retries: u64,
    config: ClusterConfig,
}

impl Cluster {
    /// The earliest instant at which anything in the cluster has work: a fault, a
    /// link delivery, an engine's next activity, a retry coming off backoff, or a
    /// frontend arrival. The central queue needs no wake-up of its own — it only
    /// becomes dispatchable as a consequence of one of these, and every settle pass
    /// ends with a dispatch attempt.
    fn next_due(&self) -> Option<f64> {
        let mut due: Option<f64> = self.wake.first().map(|&(Due(at), _)| at);
        let mut fold = |t: f64| due = Some(due.map_or(t, |d: f64| d.min(t)));
        if let Some(request) = self.requests.get(self.next_arrival) {
            fold(request.arrival);
        }
        // Never the deadline of an ended request: `settle` consumes those as they lead.
        if let Some(event) = self.fault_events.get(self.fault_cursor) {
            fold(event.at);
        }
        if let Some(at) = self.retry_due() {
            fold(at);
        }
        due
    }

    /// The earliest `ready_at` among parked retries that have somewhere to go. An
    /// entry with no live admissible engine stays asleep — an `EngineRecover` fault
    /// (or `finalize`) is what eventually resolves it.
    fn retry_due(&self) -> Option<f64> {
        let mut due: Option<f64> = None;
        for entry in &self.retry_queue {
            if (0..self.slots.len()).any(|e| self.eligible(entry.id, e)) {
                due = Some(due.map_or(entry.ready_at, |d: f64| d.min(entry.ready_at)));
            }
        }
        due
    }

    /// Processes every cluster event due at the instant `at` in the fixed kind order
    /// faults → link deliveries → engine steps → retry re-dispatch → frontend arrivals
    /// → central dispatch. [`Cluster::run`] calls it once per instant, earliest first,
    /// so every routing decision is a function of simulated time and this order alone.
    /// Deliveries and engine steps visit only the slots the wake-up index holds as due
    /// at `at` once the faults are applied, in ascending engine id; no other slot has
    /// work then. The pass ends by consuming the leading deadline events of requests
    /// that already ended: they are no-ops and must not wake the cluster. Returns
    /// whether a polled engine emitted a token or a request was shed.
    fn settle(&mut self, at: f64) -> bool {
        let (drops, mut emitted) = (self.drops.len(), false);
        self.apply_faults(at);
        let mut due = std::mem::take(&mut self.due_slots);
        due.clear();
        due.extend(self.wake.iter().take_while(|&&(Due(t), _)| t <= at).map(|&(_, e)| e));
        due.sort_unstable();
        for &e in &due {
            while let Some(&(deliver_at, id)) = self.slots[e].inflight.front() {
                if deliver_at > at {
                    break;
                }
                self.slots[e].inflight.pop_front();
                self.deliver(e, deliver_at, id);
            }
        }
        for &e in &due {
            let server = &mut self.slots[e].server;
            if server.next_activity().is_some_and(|t| t <= at) {
                let tokens = server.engine().total_decode_tokens();
                server.poll(at);
                emitted |= server.engine().total_decode_tokens() > tokens;
            }
            self.rekey(e);
        }
        self.due_slots = due;
        self.process_retries(at);
        while self.requests.get(self.next_arrival).is_some_and(|r| r.arrival <= at) {
            let id = self.next_arrival as u64;
            self.next_arrival += 1;
            if self.is_pending(id) {
                self.route(at, id);
            }
        }
        self.dispatch_central(at);
        while self.fault_events.get(self.fault_cursor).is_some_and(|event| {
            event.kind == FaultKind::DeadlineExpire && !self.is_pending(event.request)
        }) {
            self.fault_cursor += 1;
        }
        emitted || self.drops.len() > drops
    }

    /// Whether request `id` completed: the server it sits on has finished it.
    fn completed(&self, id: u64) -> bool {
        matches!(self.site[id as usize], Site::OnServer(e, handle)
            if matches!(self.slots[e].server.status(handle), RequestStatus::Finished { .. }))
    }

    /// Whether request `id` has yet to reach its terminal state (completed or
    /// dropped).
    fn is_pending(&self, id: u64) -> bool {
        !matches!(self.site[id as usize], Site::Dropped) && !self.completed(id)
    }

    /// Applies every fault event due at or before `at`, in plan order.
    fn apply_faults(&mut self, at: f64) {
        while self.fault_events.get(self.fault_cursor).is_some_and(|event| event.at <= at) {
            let event = self.fault_events[self.fault_cursor];
            self.fault_cursor += 1;
            match event.kind {
                FaultKind::EngineFail => self.fail_engine(event.at, event.engine),
                FaultKind::EngineRecover => {
                    if self.slots[event.engine].server.is_down() {
                        self.slots[event.engine].server.recover();
                        self.rekey(event.engine);
                    }
                }
                FaultKind::LinkDegrade => {
                    let link = &mut self.slots[event.engine].link;
                    let latency = self.config.link_latency_s + event.added_latency_s;
                    link.reconfigure(
                        latency,
                        self.config.link_bytes_per_s * event.bandwidth_factor,
                    );
                }
                FaultKind::LinkRestore => {
                    let link = &mut self.slots[event.engine].link;
                    link.reconfigure(self.config.link_latency_s, self.config.link_bytes_per_s);
                }
                FaultKind::DeadlineExpire => {
                    if self.is_pending(event.request) {
                        self.drop_request(event.at, event.request, DropReason::DeadlineExpired);
                    }
                }
            }
        }
    }

    /// Fail-stops engine `e` at `at`: its KV is lost, the slot goes down, and every
    /// pending request it held (on the link or admitted) is orphaned in id order.
    fn fail_engine(&mut self, at: f64, engine: usize) {
        if self.slots[engine].server.is_down() {
            return;
        }
        let victims: Vec<u64> = (0..self.site.len() as u64)
            .filter(|&id| {
                matches!(self.site[id as usize], Site::OnLink(e) | Site::OnServer(e, _) if e == engine)
                    && self.is_pending(id)
            })
            .collect();
        let _ = self.slots[engine].server.fail();
        self.slots[engine].inflight.clear();
        self.rekey(engine);
        for id in victims {
            self.site[id as usize] = Site::Idle;
            self.orphan(at, id);
        }
    }

    /// Decides the fate of a live request that has nowhere to be (its `site` must
    /// already be `Idle`): an orphan of a dead engine, or an arrival whose admissible
    /// engines are all down. Parks it for a retry once the fleet heals, or sheds it.
    fn orphan(&mut self, at: f64, id: u64) {
        let idx = id as usize;
        if !self.config.failover {
            self.drop_request(at, id, DropReason::EngineFailed);
            return;
        }
        let attempts = self.attempts[idx];
        if attempts > self.config.retry_budget {
            self.drop_request(at, id, DropReason::RetriesExhausted);
            return;
        }
        let exponent = attempts.saturating_sub(1).min(30);
        let delay =
            (self.config.backoff_base_s * (1u64 << exponent) as f64).min(self.config.backoff_cap_s);
        let ready_at = at + delay;
        if ready_at >= self.deadline[idx] {
            self.drop_request(at, id, DropReason::DeadlineExpired);
            return;
        }
        self.site[idx] = Site::RetryQueue;
        self.retry_queue.push(RetryEntry { ready_at, id });
    }

    /// Sheds request `id`: detaches it from wherever it sits, marks it terminal, and
    /// records the typed reason.
    fn drop_request(&mut self, at: f64, id: u64, reason: DropReason) {
        match self.site[id as usize] {
            Site::OnLink(e) => {
                self.slots[e].inflight.retain(|&(_, x)| x != id);
                self.rekey(e);
            }
            Site::OnServer(e, handle) => {
                self.slots[e].server.drop_now(handle, reason);
                self.rekey(e);
            }
            Site::CentralQueue => self.router.central.retain(|&x| x != id),
            Site::RetryQueue => self.retry_queue.retain(|entry| entry.id != id),
            Site::Idle | Site::Dropped => {}
        }
        self.site[id as usize] = Site::Dropped;
        self.drops.push(DropRecord { id, time: at, reason: reason.label().to_string() });
    }

    /// Re-dispatches parked orphans whose backoff elapsed, earliest (`ready_at`,
    /// `id`) first, each to the least-outstanding live admissible engine. An entry
    /// with no eligible engine while *some* engine is up can never be served (engines
    /// don't gain capacity) and is shed; with the whole fleet down it stays parked.
    fn process_retries(&mut self, at: f64) {
        loop {
            let mut pick: Option<(usize, f64, u64)> = None;
            for (slot, entry) in self.retry_queue.iter().enumerate() {
                if entry.ready_at <= at
                    && pick.map_or(true, |(_, t, i)| (entry.ready_at, entry.id) < (t, i))
                {
                    pick = Some((slot, entry.ready_at, entry.id));
                }
            }
            let Some((slot, _, id)) = pick else { break };
            let eligible: Vec<usize> =
                (0..self.slots.len()).filter(|&e| self.eligible(id, e)).collect();
            if eligible.is_empty() {
                if self.slots.iter().any(|s| !s.server.is_down()) {
                    self.retry_queue.remove(slot);
                    self.site[id as usize] = Site::Idle;
                    self.drop_request(at, id, DropReason::NoAdmissibleEngine);
                    continue;
                }
                break;
            }
            self.retry_queue.remove(slot);
            self.site[id as usize] = Site::Idle;
            // `eligible` was checked non-empty above, so min_by_key yields a value;
            // the unreachable fallback keeps this path panic-free.
            let best = eligible
                .iter()
                .copied()
                .min_by_key(|&e| (self.outstanding(e), e))
                .unwrap_or(eligible[0]);
            if self.attempts[id as usize] >= 1 {
                self.retries += 1;
            }
            self.bind(at, id, best);
        }
    }

    /// Whether engine `e` is live and could ever serve request `id` (its full
    /// context fits the engine's largest pool).
    fn eligible(&self, id: u64, engine: usize) -> bool {
        !self.slots[engine].server.is_down() && self.admissible(id, engine)
    }

    /// Whether request `id`'s full context fits engine `e`'s largest pool,
    /// regardless of the engine being up.
    fn admissible(&self, id: u64, engine: usize) -> bool {
        let request = self.requests[id as usize];
        request.prompt_len + request.output_len <= self.slots[engine].capacity
    }

    /// Terminal sweep after the run loop drains: anything still pending can only
    /// be parked against a fleet that never recovered — shed it so every request
    /// ends in exactly one terminal state.
    fn finalize(&mut self) {
        let at = self.slots.iter().map(|slot| slot.server.now()).fold(0.0, f64::max);
        for id in 0..self.requests.len() as u64 {
            if self.is_pending(id) {
                self.drop_request(at, id, DropReason::EngineFailed);
            }
        }
    }

    /// Hands a delivered request to its engine's server. A refused submission (the
    /// engine is down) re-enters the failover path.
    fn deliver(&mut self, engine: usize, at: f64, id: u64) {
        let request = self.requests[id as usize];
        match self.slots[engine].server.submit(at, request.prompt_len, request.output_len) {
            Ok(handle) => self.site[id as usize] = Site::OnServer(engine, handle),
            Err(_) => {
                self.site[id as usize] = Site::Idle;
                self.orphan(at, id);
            }
        }
    }

    /// Routes one frontend arrival at time `at` under the configured discipline,
    /// skipping engines that are down or too small for the request. An arrival no
    /// engine could *ever* hold is shed typed; one that merely has nowhere live to
    /// go right now enters the failover path.
    fn route(&mut self, at: f64, id: u64) {
        if !(0..self.slots.len()).any(|e| self.admissible(id, e)) {
            self.drop_request(at, id, DropReason::NoAdmissibleEngine);
            return;
        }
        match self.router.discipline {
            Discipline::RoundRobin => {
                let fleet = self.slots.len();
                let start = self.router.rr_next;
                let chosen = (0..fleet)
                    .map(|k| (start + k) % fleet)
                    .enumerate()
                    .find(|&(_, e)| self.eligible(id, e));
                match chosen {
                    Some((k, engine)) => {
                        self.router.rr_next = start + k + 1;
                        self.bind(at, id, engine);
                    }
                    None => self.orphan(at, id),
                }
            }
            Discipline::DFcfs => {
                let entry = self.router.seq % self.router.table.len();
                self.router.seq += 1;
                let engine = self.router.table[entry];
                if self.eligible(id, engine) {
                    self.bind(at, id, engine);
                } else {
                    // The table pointed somewhere dead or too small; fall back to
                    // the least-outstanding engine that can take it.
                    let best = (0..self.slots.len())
                        .filter(|&e| self.eligible(id, e))
                        .min_by_key(|&e| (self.outstanding(e), e));
                    match best {
                        Some(engine) => self.bind(at, id, engine),
                        None => self.orphan(at, id),
                    }
                }
                self.maybe_rebalance();
            }
            Discipline::LeastKv => match self.least_kv_engine(id) {
                Some(engine) => self.bind(at, id, engine),
                None => self.orphan(at, id),
            },
            Discipline::CFcfs => {
                self.site[id as usize] = Site::CentralQueue;
                self.router.central.push_back(id);
                self.router.max_central = self.router.max_central.max(self.router.central.len());
            }
        }
    }

    /// Outstanding work per engine as the request-count disciplines see it: the
    /// server's queue depth plus requests still in flight on the link.
    fn outstanding(&self, engine: usize) -> usize {
        self.slots[engine].server.queue_depth() + self.slots[engine].inflight.len()
    }

    /// `CFcfs` late binding: FIFO-dispatch from the central queue to the
    /// least-outstanding eligible engine (lowest id on ties) while one sits below
    /// the window. A head-of-line request with no live admissible engine leaves the
    /// queue for the failover path instead of blocking everyone behind it.
    fn dispatch_central(&mut self, at: f64) {
        if self.router.discipline != Discipline::CFcfs {
            return;
        }
        while let Some(&id) = self.router.central.front() {
            let best = (0..self.slots.len())
                .filter(|&e| self.eligible(id, e))
                .min_by_key(|&e| (self.outstanding(e), e));
            let Some(best) = best else {
                self.router.central.pop_front();
                self.site[id as usize] = Site::Idle;
                self.orphan(at, id);
                continue;
            };
            if self.outstanding(best) >= self.config.dispatch_window {
                break;
            }
            self.router.central.pop_front();
            self.bind(at, id, best);
        }
    }

    /// The `LeastKv` pressure score of one engine: KV tokens resident on its fullest
    /// rank plus in-flight prompt commitments (prompts on its link and prompts its
    /// server holds unstarted), normalised by its tightest rank's KV capacity — so a
    /// T4's small cache saturates its score long before an H100's.
    ///
    /// Every rank caches the same tokens (each holds its `1/tp` shard of their bytes),
    /// so the fullest rank's resident tokens are the pool's.
    fn kv_score(&self, engine: usize) -> f64 {
        let slot = &self.slots[engine];
        let used = slot.server.engine().kv().gpu_used_tokens();
        let on_link: usize =
            slot.inflight.iter().map(|&(_, id)| self.requests[id as usize].prompt_len).sum();
        (used + slot.server.unstarted_prompt_tokens() + on_link) as f64 / slot.kv_capacity as f64
    }

    /// The least-loaded eligible engine for `id` under the KV-pressure score, or
    /// `None` if nothing live can hold it.
    fn least_kv_engine(&self, id: u64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for e in (0..self.slots.len()).filter(|&e| self.eligible(id, e)) {
            let score = self.kv_score(e);
            if best.map_or(true, |(_, s)| score < s) {
                best = Some((e, score));
            }
        }
        best.map(|(e, _)| e)
    }

    /// `DFcfs` correction knob: every `rebalance_every` arrivals, remap one
    /// indirection-table entry from the deepest live engine to the shallowest.
    fn maybe_rebalance(&mut self) {
        self.router.arrivals_since_rebalance += 1;
        let every = self.config.rebalance_every;
        if every == 0 || self.router.arrivals_since_rebalance < every {
            return;
        }
        self.router.arrivals_since_rebalance = 0;
        let live: Vec<usize> =
            (0..self.slots.len()).filter(|&e| !self.slots[e].server.is_down()).collect();
        if live.len() < 2 {
            return;
        }
        let mut deepest = live[0];
        let mut shallowest = live[0];
        for &e in &live[1..] {
            if self.outstanding(e) > self.outstanding(deepest) {
                deepest = e;
            }
            if self.outstanding(e) < self.outstanding(shallowest) {
                shallowest = e;
            }
        }
        if self.outstanding(deepest) > self.outstanding(shallowest) {
            if let Some(entry) = self.router.table.iter().position(|&e| e == deepest) {
                self.router.table[entry] = shallowest;
                self.router.rebalances += 1;
            }
        }
    }

    /// Binds request `id` to `engine` at time `at`: records the decision, counts the
    /// attempt, and puts the request on the engine's link.
    fn bind(&mut self, at: f64, id: u64, engine: usize) {
        let request = self.requests[id as usize];
        self.records.push(RouteRecord { id, time: at, engine });
        self.attempts[id as usize] += 1;
        let bytes = request.prompt_len as f64 * self.config.bytes_per_token;
        let deliver_at = self.slots[engine].link.delivery(at, bytes);
        self.slots[engine].inflight.push_back((deliver_at, id));
        self.slots[engine].routed += 1;
        self.site[id as usize] = Site::OnLink(engine);
        self.rekey(engine);
    }

    /// Re-keys slot `engine` in the wake-up index after the cluster changed its link or
    /// its server.
    fn rekey(&mut self, engine: usize) {
        let slot = &mut self.slots[engine];
        let link = slot.inflight.front().map(|&(deliver_at, _)| deliver_at);
        let due =
            [link, slot.server.next_activity()].into_iter().flatten().reduce(f64::min).map(Due);
        if due != slot.due {
            if let Some(old) = slot.due {
                self.wake.remove(&(old, engine));
            }
            if let Some(new) = due {
                self.wake.insert((new, engine));
            }
            slot.due = due;
        }
    }

    fn report(&self) -> ClusterReport {
        // The final attempt of each completed request, with its frontend arrival, per
        // engine; the partial output of dropped requests and of abandoned attempts
        // never counts. A completed attempt streamed exactly its output.
        let mut finals: Vec<Vec<(f64, RequestHandle)>> = vec![Vec::new(); self.slots.len()];
        let (mut completed, mut streamed) = (0, 0);
        for (id, request) in self.requests.iter().enumerate() {
            if let Site::OnServer(e, handle) = self.site[id] {
                if self.completed(id as u64) {
                    finals[e].push((request.arrival, handle));
                    completed += 1;
                    streamed += request.output_len as u64;
                }
            }
        }
        // The summaries sort their samples, so folding one engine at a time gives the
        // bits of any other order.
        let mut fold = LatencyFold::default();
        for (slot, streams) in self.slots.iter().zip(finals) {
            slot.server.fold_latency(&mut fold, streams);
        }
        let (ttft, itl) = fold.summaries();
        let engines: Vec<EngineSummary> = self
            .slots
            .iter()
            .map(|slot| {
                let counts = slot.server.counts();
                EngineSummary {
                    name: slot.name.clone(),
                    routed: slot.routed,
                    completed: counts.completed,
                    streamed_tokens: counts.streamed_tokens,
                    dropped: counts.dropped,
                    makespan: slot.server.now(),
                    offload_fraction: counts.offload_fraction,
                }
            })
            .collect();
        ClusterReport {
            discipline: self.router.discipline.label().to_string(),
            requests: self.requests.len(),
            completed,
            dropped: self.drops.len(),
            retries: self.retries,
            makespan: engines.iter().map(|e| e.makespan).fold(0.0, f64::max),
            streamed_tokens: streamed,
            ttft,
            itl,
            rebalances: self.router.rebalances,
            max_central_queue: self.router.max_central,
            engines,
            routes: self.records.clone(),
            drops: self.drops.clone(),
        }
    }
}

impl Cluster {
    /// Builds a cluster over named engines (fresh, exactly as [`Server::new`]
    /// requires) serving the given arrival trace.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is empty, a non-positive window/table size is configured
    /// for the discipline that needs it, any engine already holds requests, the
    /// retry/backoff knobs are not finite and non-negative, or the fault plan
    /// references an engine/request outside the fleet/trace or carries non-positive
    /// degradation parameters.
    pub fn new(engines: Vec<(String, Engine)>, trace: &Trace, config: ClusterConfig) -> Self {
        assert!(!engines.is_empty(), "a cluster needs at least one engine");
        assert!(
            config.discipline != Discipline::CFcfs || config.dispatch_window >= 1,
            "cFCFS needs a dispatch window of at least 1"
        );
        assert!(
            config.discipline != Discipline::DFcfs || config.table_entries_per_engine >= 1,
            "dFCFS needs at least one indirection-table entry per engine"
        );
        assert!(
            config.bytes_per_token.is_finite() && config.bytes_per_token >= 0.0,
            "bytes_per_token must be finite and >= 0"
        );
        assert!(
            config.backoff_base_s.is_finite() && config.backoff_base_s >= 0.0,
            "backoff base must be finite and >= 0"
        );
        assert!(
            config.backoff_cap_s.is_finite() && config.backoff_cap_s >= 0.0,
            "backoff cap must be finite and >= 0"
        );
        let fleet_size = engines.len();
        let slots: Vec<Slot> = engines
            .into_iter()
            .map(|(name, engine)| Slot {
                capacity: engine.max_context_capacity(),
                kv_capacity: engine
                    .rank_budgets()
                    .iter()
                    .map(|budget| budget.kv_capacity_tokens)
                    .min()
                    .unwrap_or(0)
                    .max(1),
                due: None,
                name,
                server: Server::new(engine),
                link: SerialLine::new(config.link_latency_s, config.link_bytes_per_s),
                inflight: VecDeque::new(),
                routed: 0,
            })
            .collect();
        let requests = trace.requests().to_vec();
        let deadline: Vec<f64> = requests
            .iter()
            .map(|r| config.slo.map_or(f64::INFINITY, |slo| slo.deadline(r.arrival, r.output_len)))
            .collect();
        let mut fault_events = config.fault_plan.sorted_events();
        for event in &fault_events {
            assert!(
                event.at.is_finite() && event.at >= 0.0,
                "fault event times must be finite and >= 0"
            );
            match event.kind {
                FaultKind::DeadlineExpire => assert!(
                    (event.request as usize) < requests.len(),
                    "deadline fault targets request {} outside the trace",
                    event.request
                ),
                _ => assert!(
                    event.engine < fleet_size,
                    "fault event targets engine {} outside the fleet",
                    event.engine
                ),
            }
            if event.kind == FaultKind::LinkDegrade {
                assert!(
                    event.bandwidth_factor.is_finite() && event.bandwidth_factor > 0.0,
                    "link degradation needs a positive finite bandwidth factor"
                );
                assert!(
                    event.added_latency_s.is_finite() && event.added_latency_s >= 0.0,
                    "added link latency must be finite and >= 0"
                );
            }
        }
        if config.slo.is_some() {
            for (id, &at) in deadline.iter().enumerate() {
                fault_events.push(FaultEvent {
                    at,
                    kind: FaultKind::DeadlineExpire,
                    engine: 0,
                    request: id as u64,
                    bandwidth_factor: 1.0,
                    added_latency_s: 0.0,
                });
            }
            fault_events.sort_by(|a, b| a.at.total_cmp(&b.at));
        }
        let router = RouterState {
            discipline: config.discipline,
            rr_next: 0,
            central: VecDeque::new(),
            max_central: 0,
            table: (0..fleet_size * config.table_entries_per_engine.max(1))
                .map(|entry| entry % fleet_size)
                .collect(),
            seq: 0,
            arrivals_since_rebalance: 0,
            rebalances: 0,
        };
        let request_count = requests.len();
        Self {
            slots,
            wake: BTreeSet::new(),
            due_slots: Vec::new(),
            requests,
            next_arrival: 0,
            router,
            records: Vec::new(),
            fault_events,
            fault_cursor: 0,
            site: vec![Site::Idle; request_count],
            attempts: vec![0; request_count],
            deadline,
            retry_queue: Vec::new(),
            drops: Vec::new(),
            retries: 0,
            config,
        }
    }

    /// Runs the fleet until every request reached a terminal state and summarises
    /// the run: settles the earliest due instant, one pass per instant, until nothing
    /// is due.
    ///
    /// # Panics
    ///
    /// Panics if [`ClusterConfig::max_events`] settle passes in a row make no progress
    /// (livelock guard), naming the instant and the requests still pending.
    pub fn run(mut self) -> ClusterReport {
        let mut stalled: u64 = 0;
        while let Some(at) = self.next_due() {
            assert!(
                stalled < self.config.max_events,
                "cluster livelocked at t={at} with {} requests pending: the run used up \
                 max_events = {} settle passes without progress",
                (0..self.requests.len() as u64).filter(|&id| self.is_pending(id)).count(),
                self.config.max_events
            );
            stalled = if self.settle(at) { 0 } else { stalled + 1 };
        }
        self.finalize();
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_core::{EngineConfig, NeoScheduler};
    use neo_sim::{CostModel, ModelDesc, Testbed};
    use neo_workload::{synthetic, ArrivalProcess};

    fn a10g_engine() -> Engine {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        Engine::new(cost, EngineConfig::default(), Box::new(NeoScheduler::new()))
    }

    fn t4_engine() -> Engine {
        let cost = CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1);
        Engine::new(cost, EngineConfig::default(), Box::new(NeoScheduler::new()))
    }

    fn homogeneous_pair() -> Vec<(String, Engine)> {
        vec![("a10g-0".to_string(), a10g_engine()), ("a10g-1".to_string(), a10g_engine())]
    }

    fn run(
        discipline: Discipline,
        n: usize,
        rate: f64,
        fleet: Vec<(String, Engine)>,
    ) -> ClusterReport {
        let trace = synthetic(n, 300, 12, ArrivalProcess::Uniform { rate }, 11);
        let config = ClusterConfig { discipline, ..ClusterConfig::default() };
        Cluster::new(fleet, &trace, config).run()
    }

    #[test]
    fn round_robin_splits_a_pair_evenly_and_serves_everything() {
        let report = run(Discipline::RoundRobin, 10, 4.0, homogeneous_pair());
        assert_eq!(report.completed, 10);
        assert_eq!(report.engines[0].routed, 5);
        assert_eq!(report.engines[1].routed, 5);
        assert_eq!(report.routes.len(), 10);
        // Conservation: every output token of the trace streamed exactly once.
        assert_eq!(report.streamed_tokens, report.engines.iter().map(|e| e.streamed_tokens).sum());
        let ttft = report.ttft.expect("every request produced tokens");
        assert_eq!(ttft.count, 10);
        assert!(ttft.mean > 0.0, "TTFT is measured from the frontend arrival");
    }

    #[test]
    fn cfcfs_binds_late_and_bounds_outstanding_work() {
        // A burst at t=0: the central queue must engage and dispatch FIFO.
        let trace = synthetic(12, 300, 12, ArrivalProcess::AllAtOnce, 5);
        let config = ClusterConfig {
            discipline: Discipline::CFcfs,
            dispatch_window: 2,
            ..ClusterConfig::default()
        };
        let report = Cluster::new(homogeneous_pair(), &trace, config).run();
        assert_eq!(report.completed, 12);
        assert!(report.max_central_queue >= 8, "the window must hold the burst back");
        // Late binding: dispatch times are spread out even though all arrivals are 0.
        assert!(report.routes.iter().any(|r| r.time > 0.0));
        // FIFO: binding order is id order.
        let ids: Vec<u64> = report.routes.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn dfcfs_rebalances_the_indirection_table_under_skew() {
        // A fleet whose second engine is far slower (T4): static round-robin entries
        // pile work on it, and the periodic remap must fire.
        let fleet = vec![("a10g".to_string(), a10g_engine()), ("t4".to_string(), t4_engine())];
        let trace = synthetic(40, 300, 12, ArrivalProcess::Uniform { rate: 6.0 }, 9);
        let config = ClusterConfig {
            discipline: Discipline::DFcfs,
            rebalance_every: 8,
            ..ClusterConfig::default()
        };
        let report = Cluster::new(fleet, &trace, config).run();
        assert_eq!(report.completed, 40);
        assert!(report.rebalances >= 1, "skew must trigger at least one remap");
    }

    #[test]
    fn least_kv_loads_the_bigger_cache_harder_than_round_robin_does() {
        let hetero = || vec![("a10g".to_string(), a10g_engine()), ("t4".to_string(), t4_engine())];
        let rr = run(Discipline::RoundRobin, 24, 6.0, hetero());
        let kv = run(Discipline::LeastKv, 24, 6.0, hetero());
        assert_eq!(rr.completed, 24);
        assert_eq!(kv.completed, 24);
        assert_eq!(rr.engines[1].routed, 12, "round-robin ignores the T4's capacity");
        assert!(
            kv.engines[1].routed < rr.engines[1].routed,
            "least-kv must route less work to the capacity-starved T4 ({} vs {})",
            kv.engines[1].routed,
            rr.engines[1].routed
        );
    }

    #[test]
    fn report_serialises_to_json() {
        let report = run(Discipline::CFcfs, 8, 4.0, homogeneous_pair());
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"discipline\""));
        assert!(json.contains("cFCFS"));
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn empty_fleet_is_rejected() {
        let trace = synthetic(1, 100, 4, ArrivalProcess::AllAtOnce, 1);
        let _ = Cluster::new(Vec::new(), &trace, ClusterConfig::default());
    }

    #[test]
    fn failover_completes_everything_on_the_survivor() {
        let trace = synthetic(10, 300, 12, ArrivalProcess::Uniform { rate: 4.0 }, 11);
        let config = ClusterConfig {
            fault_plan: FaultPlan::new().engine_fail(0.5, 0),
            ..ClusterConfig::default()
        };
        let report = Cluster::new(homogeneous_pair(), &trace, config).run();
        assert_eq!(report.completed, 10, "every orphan must fail over: {:?}", report.drops);
        assert_eq!(report.dropped, 0);
        assert!(report.retries >= 1, "the dead engine held work at t=0.5");
        assert_eq!(report.engines[0].completed + report.engines[1].completed, 10);
        assert!(
            report.engines[1].completed > report.engines[0].completed,
            "the survivor must carry the fleet"
        );
        // Conservation: a retried request's discarded partial output is not
        // double-counted — the faulted run streams exactly what a clean run does.
        let clean = run(Discipline::RoundRobin, 10, 4.0, homogeneous_pair());
        assert_eq!(report.streamed_tokens, clean.streamed_tokens);
    }

    #[test]
    fn without_failover_the_dead_engines_requests_are_shed() {
        let trace = synthetic(10, 300, 12, ArrivalProcess::Uniform { rate: 4.0 }, 11);
        let config = ClusterConfig {
            fault_plan: FaultPlan::new().engine_fail(0.5, 0),
            failover: false,
            ..ClusterConfig::default()
        };
        let report = Cluster::new(homogeneous_pair(), &trace, config).run();
        assert_eq!(report.completed + report.dropped, 10, "every request must end terminal");
        assert!(report.dropped >= 1, "the dead engine held work at t=0.5");
        assert!(report.drops.iter().all(|d| d.reason == "engine_failed"));
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn requests_arriving_while_the_fleet_is_down_wait_for_recovery() {
        let fleet = vec![("a10g".to_string(), a10g_engine())];
        let trace = synthetic(4, 200, 8, ArrivalProcess::Uniform { rate: 50.0 }, 3);
        let config = ClusterConfig {
            fault_plan: FaultPlan::new().engine_fail(0.01, 0).engine_recover(5.0, 0),
            ..ClusterConfig::default()
        };
        let report = Cluster::new(fleet, &trace, config).run();
        assert_eq!(report.completed, 4, "recovery must drain the parked queue: {:?}", report.drops);
        let late = report.routes.iter().filter(|r| r.time >= 5.0).count();
        assert!(late >= 3, "arrivals during the outage re-dispatch after recovery");
    }

    #[test]
    fn a_request_no_engine_can_ever_hold_is_shed_typed() {
        let trace = synthetic(2, 2_000_000, 4, ArrivalProcess::AllAtOnce, 1);
        let report = Cluster::new(homogeneous_pair(), &trace, ClusterConfig::default()).run();
        assert_eq!(report.completed, 0);
        assert_eq!(report.dropped, 2);
        assert!(report.drops.iter().all(|d| d.reason == "no_admissible_engine"));
        assert!(report.routes.is_empty(), "never-admissible requests must not bind");

        // A request that exactly fills the engine's largest pool is admissible: a
        // one-engine fleet routes and completes it.
        let capacity = a10g_engine().max_context_capacity();
        let exact_fit = TraceRequest { arrival: 0.0, prompt_len: capacity - 4, output_len: 4 };
        let fleet = vec![("a10g".to_string(), a10g_engine())];
        let report =
            Cluster::new(fleet, &Trace::new(vec![exact_fit]), ClusterConfig::default()).run();
        assert_eq!(report.completed, 1, "an exact fit must not be shed: {:?}", report.drops);
        assert_eq!(report.routes.len(), 1);
    }

    #[test]
    fn an_impossible_slo_sheds_with_deadline_drops() {
        let trace = synthetic(6, 300, 12, ArrivalProcess::Uniform { rate: 4.0 }, 11);
        let config = ClusterConfig {
            slo: Some(neo_workload::SloPolicy::new(1e-6, 0.0)),
            ..ClusterConfig::default()
        };
        let report = Cluster::new(homogeneous_pair(), &trace, config).run();
        assert_eq!(report.dropped, 6, "a microsecond deadline is unmeetable");
        assert_eq!(report.completed, 0);
        assert!(report.drops.iter().all(|d| d.reason == "deadline_expired"));
    }

    #[test]
    fn a_degraded_link_inflates_frontend_ttft() {
        let fleet = || vec![("a10g".to_string(), a10g_engine())];
        let trace = synthetic(4, 300, 8, ArrivalProcess::Uniform { rate: 2.0 }, 7);
        let clean =
            Cluster::new(fleet(), &trace, ClusterConfig::default()).run().ttft.unwrap().mean;
        let config = ClusterConfig {
            fault_plan: FaultPlan::new().link_degrade(0.0, 0, 0.01, 0.25),
            ..ClusterConfig::default()
        };
        let degraded = Cluster::new(fleet(), &trace, config).run();
        assert_eq!(degraded.completed, 4, "degradation slows delivery but loses nothing");
        assert!(
            degraded.ttft.unwrap().mean > clean + 0.2,
            "added propagation latency must show up in frontend TTFT"
        );
    }

    #[test]
    fn retry_budget_bounds_redispatches() {
        // Both engines flap so orphans keep dying; the budget must cap the churn.
        let mut plan = FaultPlan::new();
        for k in 0..40 {
            let at = 0.2 + 0.1 * k as f64;
            plan = plan.engine_fail(at, k % 2).engine_recover(at + 0.05, k % 2);
        }
        let trace = synthetic(8, 300, 12, ArrivalProcess::AllAtOnce, 5);
        let config = ClusterConfig {
            fault_plan: plan,
            retry_budget: 2,
            backoff_base_s: 0.01,
            backoff_cap_s: 0.02,
            ..ClusterConfig::default()
        };
        let report = Cluster::new(homogeneous_pair(), &trace, config).run();
        assert_eq!(report.completed + report.dropped, 8);
        assert!(report.retries <= 8 * 2, "retries must respect the per-request budget");
    }

    fn h100_tp2_engine() -> Engine {
        let cost = CostModel::new(ModelDesc::llama3_70b(), Testbed::hgx_h100(2), 2);
        Engine::new(cost, EngineConfig::default(), Box::new(NeoScheduler::new()))
    }

    /// Slot `e`'s earliest work, found the slow way: its link head or its server's next
    /// activity, whichever is earlier.
    fn brute_due(cluster: &Cluster, e: usize) -> Option<f64> {
        let slot = &cluster.slots[e];
        let link = slot.inflight.front().map(|&(deliver_at, _)| deliver_at);
        [link, slot.server.next_activity()].into_iter().flatten().reduce(f64::min)
    }

    /// The `LeastKv` score built from every rank's budget and occupancy, as the
    /// engine reports them.
    fn kv_score_from_ranks(cluster: &Cluster, e: usize) -> f64 {
        let slot = &cluster.slots[e];
        let engine = slot.server.engine();
        let capacity =
            engine.rank_budgets().iter().map(|b| b.kv_capacity_tokens).min().unwrap_or(0).max(1);
        let used = engine.rank_occupancy().iter().map(|o| o.used_tokens).max().unwrap_or(0);
        let on_link: usize =
            slot.inflight.iter().map(|&(_, id)| cluster.requests[id as usize].prompt_len).sum();
        (used + slot.server.unstarted_prompt_tokens() + on_link) as f64 / capacity as f64
    }

    /// What one checked drive saw besides the report.
    #[derive(Debug, Default)]
    struct Drive {
        /// Passes that settled the same instant as the pass before.
        repeated_instants: usize,
        /// Requests shed while on a link, and while on a server.
        link_drops: usize,
        server_drops: usize,
    }

    /// Runs `cluster` pass by pass as [`Cluster::run`] does, checking the wake-up
    /// index against brute force around every pass:
    /// - the pass visits exactly the slots that have work at or before its instant
    ///   once the faults are applied, so no slot outside it had any;
    /// - afterwards every slot is keyed at its brute-force due instant, so the index's
    ///   minimum is the brute-force minimum;
    /// - every engine's `LeastKv` score equals the one built from its ranks.
    fn drive_checked(mut cluster: Cluster) -> (ClusterReport, Drive) {
        let mut drive = Drive::default();
        let mut last: Option<f64> = None;
        while let Some(at) = cluster.next_due() {
            drive.repeated_instants += usize::from(last == Some(at));
            last = Some(at);
            let sites = cluster.site.clone();
            // Applying the faults first leaves settle's own call nothing to do.
            cluster.apply_faults(at);
            let fleet = 0..cluster.slots.len();
            let with_work: Vec<usize> = fleet
                .clone()
                .filter(|&e| brute_due(&cluster, e).is_some_and(|t| t <= at))
                .collect();
            cluster.settle(at);
            assert_eq!(cluster.due_slots, with_work, "the pass at t={at} visited the wrong slots");
            for (before, after) in sites.iter().zip(&cluster.site) {
                match (before, after) {
                    (Site::OnLink(_), Site::Dropped) => drive.link_drops += 1,
                    (Site::OnServer(..), Site::Dropped) => drive.server_drops += 1,
                    _ => {}
                }
            }
            let keyed: BTreeSet<(Due, usize)> =
                fleet.clone().filter_map(|e| Some((Due(brute_due(&cluster, e)?), e))).collect();
            assert_eq!(cluster.wake, keyed, "the index is stale after the pass at t={at}");
            let minimum = fleet.clone().filter_map(|e| brute_due(&cluster, e)).reduce(f64::min);
            assert_eq!(cluster.wake.first().map(|&(Due(t), _)| t), minimum);
            for e in fleet {
                assert_eq!(
                    cluster.kv_score(e).to_bits(),
                    kv_score_from_ranks(&cluster, e).to_bits(),
                    "engine {e}'s score after the pass at t={at}"
                );
            }
        }
        cluster.finalize();
        (cluster.report(), drive)
    }

    #[test]
    fn the_wake_up_index_matches_brute_force_on_a_faulted_heterogeneous_fleet() {
        let fleet = || {
            vec![
                ("t4".to_string(), t4_engine()),
                ("a10g".to_string(), a10g_engine()),
                ("h100-tp2".to_string(), h100_tp2_engine()),
                ("a10g-2".to_string(), a10g_engine()),
            ]
        };
        let trace = neo_workload::fleet_mix(80, 0.35, 6.0, 3);
        // Six seconds of added latency on engine 3's link outlast most deadlines, so
        // requests are shed while on it, some while its server is idle.
        let fault_plan = FaultPlan::seeded_outages(4, 12.0, 4, 1.5, 17)
            .link_degrade(0.0, 3, 0.5, 6.0)
            .link_restore(8.0, 3);
        let config = || ClusterConfig {
            discipline: Discipline::LeastKv,
            fault_plan: fault_plan.clone(),
            failover: true,
            slo: Some(SloPolicy::new(3.0, 0.02)),
            ..ClusterConfig::default()
        };
        let (checked, drive) = drive_checked(Cluster::new(fleet(), &trace, config()));
        let report = Cluster::new(fleet(), &trace, config()).run();
        assert_eq!(checked.routes, report.routes, "the checked drive is the run");
        assert_eq!(checked.drops, report.drops);
        assert!(report.retries > 0, "the outages orphaned work");
        assert!(drive.link_drops > 0, "deadlines shed requests on the degraded link");
        assert!(drive.server_drops > 0, "deadlines shed admitted requests");
        assert!(report.completed > 0);
    }

    #[test]
    fn the_wake_up_index_matches_brute_force_on_a_zero_latency_central_queue() {
        let fleet = || {
            let mut fleet = homogeneous_pair();
            fleet.push(("t4".to_string(), t4_engine()));
            fleet
        };
        let trace = synthetic(30, 300, 12, ArrivalProcess::Uniform { rate: 20.0 }, 4);
        let config = || ClusterConfig {
            discipline: Discipline::CFcfs,
            dispatch_window: 2,
            link_latency_s: 0.0,
            bytes_per_token: 0.0,
            ..ClusterConfig::default()
        };
        let (checked, drive) = drive_checked(Cluster::new(fleet(), &trace, config()));
        let report = Cluster::new(fleet(), &trace, config()).run();
        assert_eq!(checked.routes, report.routes, "the checked drive is the run");
        assert_eq!(report.completed, 30);
        assert!(
            drive.repeated_instants > 0,
            "a bind on a zero-latency link is delivered by a new pass at the same instant"
        );
    }

    /// A livelocked policy: it stays idle whatever waits.
    struct IdlePolicy;

    impl neo_core::Scheduler for IdlePolicy {
        fn schedule(&mut self, _ctx: &neo_core::ScheduleContext<'_>) -> neo_core::ScheduleDecision {
            neo_core::ScheduleDecision::idle()
        }

        fn name(&self) -> &'static str {
            "idle"
        }
    }

    #[test]
    #[should_panic(
        expected = "with 4 requests pending: the run used up max_events = 3 settle passes \
                    without progress"
    )]
    fn max_events_bounds_the_passes_without_progress() {
        // Every request is routed at t=0 and lands at t=0.5 on an engine whose policy
        // never schedules it: the routing pass, the delivery pass and every idle
        // quantum after it make no progress.
        let trace = synthetic(4, 300, 12, ArrivalProcess::AllAtOnce, 5);
        let config = ClusterConfig {
            max_events: 3,
            link_latency_s: 0.5,
            bytes_per_token: 0.0,
            ..ClusterConfig::default()
        };
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let idle = Engine::new(cost, EngineConfig::default(), Box::new(IdlePolicy));
        let _ = Cluster::new(vec![("idle".to_string(), idle)], &trace, config).run();
    }

    #[test]
    fn a_healthy_run_outlasts_its_budget_of_passes_without_progress() {
        // All 16 requests land at once and decode about 32 tokens each, so the run
        // takes more than 30 settle passes; only the routing pass makes no progress.
        let trace = synthetic(16, 300, 32, ArrivalProcess::AllAtOnce, 5);
        let config =
            ClusterConfig { max_events: 4, bytes_per_token: 0.0, ..ClusterConfig::default() };
        let report = Cluster::new(homogeneous_pair(), &trace, config).run();
        assert_eq!(report.completed, 16);
        assert!(report.streamed_tokens > 16 * 30);
    }
}
