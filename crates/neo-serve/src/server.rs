//! The event-driven serving loop.
//!
//! [`Server`] turns the iteration-level [`neo_core::Engine`] into something a client can
//! sit on top of: requests are *submitted* (individually, at any simulated time — not
//! replayed from a pre-scanned trace), can be *cancelled* mid-flight (their KV blocks are
//! freed immediately, even mid-decode), and *stream* their output tokens through a
//! per-request callback as they are produced.
//!
//! Internally the server runs an event queue in simulated time. Three things drive it:
//!
//! * **arrival events** — a submitted request becomes visible at its arrival time and
//!   enters the admission backlog;
//! * **step-complete** — after every [`neo_core::Engine::step`] that emitted tokens the
//!   server records the step's end time once, visits the requests the engine reports as
//!   its emitters ([`neo_core::Engine::emitted`]), extends each one's token stream — runs
//!   of consecutive indices into those end times — and fires one [`TokenEvent`] per
//!   token. The streams are the one record of when a request's tokens came: a stream's
//!   last token is the request's finish time, and every latency metric folds from them;
//! * **cancel events** — a scheduled cancellation evicts the request wherever it is
//!   (backlog, waitqueue, or mid-decode).
//!
//! Admission applies backpressure instead of dropping: while the engine reports a full
//! prefill waitqueue ([`neo_core::Engine::can_admit`] is `false`), arrivals wait in the
//! server's FIFO backlog and are admitted as the queue drains.
//!
//! [`crate::run_online`] and [`crate::run_offline`] are thin wrappers over this loop; real
//! clients (or a future HTTP front-end) use [`Server::submit`] / [`Server::cancel`]
//! directly.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use neo_core::request::Request;
use neo_core::{AdmitError, Engine, ExecutionMode, IterationReport};
use neo_kvcache::TokenRun;
use neo_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::metrics::{LatencyFold, LatencySummary, Stream};

/// One streamed output token, delivered to the submitting client's callback.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TokenEvent {
    /// Request this token belongs to.
    pub request_id: u64,
    /// Zero-based index of the token within the request's output.
    pub index: usize,
    /// Simulated time the token was emitted.
    pub time: f64,
    /// Whether this is the request's final token.
    pub is_last: bool,
}

/// Streaming callback invoked once per emitted token, in emission order.
pub type TokenCallback = Box<dyn FnMut(&TokenEvent)>;

/// Client-side handle to a submitted request, used to query status and to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestHandle {
    id: u64,
}

impl RequestHandle {
    /// The server-assigned request id (also the `request_id` of its [`TokenEvent`]s).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Lifecycle of a request as observed through its [`RequestHandle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestStatus {
    /// Submitted; its arrival time has not been reached yet.
    Scheduled,
    /// Arrived, but held in the server backlog by admission backpressure.
    Backlogged,
    /// Admitted into the engine (waiting, prefilling, or decoding).
    Running {
        /// Output tokens streamed so far.
        generated: usize,
    },
    /// All output tokens produced.
    Finished {
        /// Simulated completion time: the emission time of the last token.
        finish_time: f64,
    },
    /// Cancelled before finishing.
    Cancelled {
        /// Output tokens streamed before the cancellation.
        generated: usize,
    },
    /// Shed by the serving layer before finishing (see [`DropReason`]).
    Dropped {
        /// Why the request was shed.
        reason: DropReason,
        /// Output tokens streamed before the drop.
        generated: usize,
    },
}

/// Why the serving layer shed a request instead of finishing it.
///
/// Unlike a client-initiated [`Server::cancel`], a drop is the *server's* decision: the
/// engine died under the request, its SLO deadline passed, its retry budget ran out, or
/// no engine in the fleet can ever hold it. Dropped requests are terminal — they count
/// as shed (not goodput) in every summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// The engine serving the request fail-stopped, losing its KV.
    EngineFailed,
    /// The request's SLO deadline passed (or a retry could not beat it).
    DeadlineExpired,
    /// The per-request retry budget was exhausted by repeated failovers.
    RetriesExhausted,
    /// No live engine can admit the request (e.g. its context fits no pool).
    NoAdmissibleEngine,
}

impl DropReason {
    /// Stable snake_case label, used as a JSON key in drop breakdowns.
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::EngineFailed => "engine_failed",
            DropReason::DeadlineExpired => "deadline_expired",
            DropReason::RetriesExhausted => "retries_exhausted",
            DropReason::NoAdmissibleEngine => "no_admissible_engine",
        }
    }
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What the serving loop did, summarised when the queue drains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerReport {
    /// Requests that produced their full output.
    pub completed: usize,
    /// Requests cancelled before finishing.
    pub cancelled: usize,
    /// Requests shed by the server (engine failure, deadline, retry exhaustion).
    pub dropped: usize,
    /// Simulated time when the loop drained.
    pub makespan: f64,
    /// Engine iterations executed (including idle quanta).
    pub iterations: u64,
    /// Fraction of busy iterations that offloaded attention to the CPU.
    pub offload_fraction: f64,
    /// Tokens delivered through streaming callbacks (all requests).
    pub streamed_tokens: u64,
    /// Time-to-first-token summary over requests that produced at least one token.
    pub ttft: Option<LatencySummary>,
    /// Inter-token latency summary: gaps between consecutive tokens of the same request,
    /// over requests that produced at least two tokens.
    pub itl: Option<LatencySummary>,
    /// High-water mark of the admission backlog (0 means backpressure never engaged).
    pub max_backlog: usize,
}

/// The terminal counts, streaming totals and iteration-mode fractions of a server so
/// far: what callers read who need no latency fold of a [`ServerReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCounts {
    /// Requests that produced their full output.
    pub completed: usize,
    /// Requests cancelled before finishing.
    pub cancelled: usize,
    /// Requests shed by the server (engine failure, deadline, retry exhaustion).
    pub dropped: usize,
    /// Tokens delivered through streaming callbacks (all requests).
    pub streamed_tokens: u64,
    /// Fraction of busy iterations that offloaded attention to the CPU.
    pub offload_fraction: f64,
    /// Fraction of busy iterations that ran in asymmetric (two-sub-batch) mode.
    pub asymmetric_fraction: f64,
}

/// The livelock guard every [`Server`] starts with: the loop panics once this many
/// iterations in a row emit no token while no request ends. Healthy runs stay far
/// below it: the longest such streak is 14 iterations over the 13 figure drivers, 1
/// over the examples, 15 over the 64 servers of simbench's `fleet64_faults` and 6 on
/// its `a10g_ac_overload` (seeds 1 and 7, counted by a probe in a copy of the server).
/// A stalled policy reaches it in about a second of a debug build (2-vCPU container).
/// [`Server::with_max_iterations`] replaces it.
pub const DEFAULT_STALL_BUDGET: u64 = 1_000_000;

/// Internal event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Arrival(u64),
    Cancel(u64),
}

/// A pending event: its time, its submission sequence number and what it is. Reversed
/// so the std max-heap pops the earliest event first, and same-time events in
/// submission order (sequence numbers are unique, so the kind never decides).
type TimedEvent = Reverse<(SimTime, u64, EventKind)>;

/// Server-side record of one submitted request.
struct Session {
    arrival: f64,
    prompt_len: usize,
    output_len: usize,
    /// Prompt identity as token runs (empty = opaque prompt, no prefix sharing), until
    /// admission moves them into the engine's request.
    runs: Vec<TokenRun>,
    state: SessionState,
    callback: Option<TokenCallback>,
    /// The streamed tokens, as runs over [`Server::emit_ends`]: the one record of the
    /// request's stream.
    stream: Stream,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SessionState {
    Scheduled,
    Backlogged,
    Running,
    Finished,
    Cancelled,
    Dropped { reason: DropReason },
}

/// The event-driven serving loop over one [`Engine`].
pub struct Server {
    engine: Engine,
    events: BinaryHeap<TimedEvent>,
    sessions: Vec<Session>,
    /// End time of every iteration that emitted a token, in order: the times the
    /// sessions' streams index into.
    emit_ends: Vec<f64>,
    /// Arrived-but-not-admitted request ids, FIFO.
    backlog: VecDeque<u64>,
    next_seq: u64,
    max_iterations: u64,
    /// Iterations since the last one that emitted a token or a request ended.
    stalled: u64,
    iterations: u64,
    busy_iterations: u64,
    offload_iterations: u64,
    asymmetric_iterations: u64,
    streamed_tokens: u64,
    /// Prompt tokens of held requests that have not streamed a token yet.
    unstarted_prompt_tokens: usize,
    max_backlog: usize,
    last_report: Option<IterationReport>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("engine", &self.engine)
            .field("now", &self.engine.now())
            .field("submitted", &self.sessions.len())
            .field("backlog", &self.backlog.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

impl Server {
    /// Wraps an engine in a serving loop. The engine must be fresh (no requests submitted
    /// directly); all traffic goes through [`Server::submit`].
    ///
    /// # Panics
    ///
    /// Panics if the engine already holds live or completed requests.
    pub fn new(engine: Engine) -> Self {
        assert!(
            engine.is_idle() && engine.completed() == 0,
            "the server needs a fresh engine; submit requests through the server"
        );
        Self {
            engine,
            events: BinaryHeap::new(),
            sessions: Vec::new(),
            emit_ends: Vec::new(),
            backlog: VecDeque::new(),
            next_seq: 0,
            max_iterations: DEFAULT_STALL_BUDGET,
            stalled: 0,
            iterations: 0,
            busy_iterations: 0,
            offload_iterations: 0,
            asymmetric_iterations: 0,
            streamed_tokens: 0,
            unstarted_prompt_tokens: 0,
            max_backlog: 0,
            last_report: None,
        }
    }

    /// Replaces the livelock guard's budget ([`DEFAULT_STALL_BUDGET`]): the loop panics
    /// once this many iterations in a row emitted no token while no request ended. A
    /// healthy run of any length passes.
    pub fn with_max_iterations(mut self, max_iterations: u64) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.engine.now()
    }

    /// Read-only view of the underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Current depth of the admission backlog.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Requests this server is responsible for but has not finished: the admission
    /// backlog plus everything live inside the engine (waiting, prefilling, or
    /// decoding). This is the load signal cluster routers compare across engines —
    /// [`Server::backlog_len`] alone undercounts a busy server whose backlog is empty
    /// but whose engine is full.
    pub fn queue_depth(&self) -> usize {
        self.backlog.len() + self.engine.live_requests()
    }

    /// The next simulated time this server has work to do, or `None` when it is
    /// drained: the engine's clock while it is busy (the next iteration starts
    /// immediately), otherwise the earliest pending arrival that will actually create
    /// work (an arrival suppressed by an earlier-or-same-time pending cancel is
    /// inert and never advances the clock — see [`Server::tick`]).
    ///
    /// This is the wake-up seam a cluster clock uses to interleave many servers: call
    /// [`Server::poll`] once simulated time reaches the returned instant.
    pub fn next_activity(&self) -> Option<f64> {
        if self.engine.is_down() {
            // A fail-stopped server can do no work until recovery: reporting activity
            // here would make a cluster clock spin on it forever.
            return None;
        }
        if !self.engine.is_idle() || !self.backlog.is_empty() {
            return Some(self.engine.now());
        }
        // Earliest pending cancel per request id, as (time, seq) — the delivery order
        // of the event heap — so a cancel due before a request's arrival is known to
        // suppress it.
        let mut cancels: std::collections::BTreeMap<u64, (f64, u64)> =
            std::collections::BTreeMap::new();
        for &Reverse((SimTime(time), seq, kind)) in self.events.iter() {
            if let EventKind::Cancel(id) = kind {
                let key = (time, seq);
                cancels
                    .entry(id)
                    .and_modify(|existing| {
                        if key < *existing {
                            *existing = key;
                        }
                    })
                    .or_insert(key);
            }
        }
        let mut earliest: Option<f64> = None;
        for &Reverse((SimTime(time), seq, kind)) in self.events.iter() {
            if let EventKind::Arrival(id) = kind {
                if self.sessions[id as usize].state != SessionState::Scheduled {
                    continue;
                }
                if cancels.get(&id).is_some_and(|&cancel| cancel < (time, seq)) {
                    continue; // suppressed before it lands
                }
                earliest = Some(earliest.map_or(time, |t: f64| t.min(time)));
            }
        }
        earliest
    }

    /// Advances the loop through every piece of work that *starts* at or before
    /// `horizon` and returns the number of engine iterations run. Iterations are
    /// atomic: one starting at the horizon runs to completion even if it finishes
    /// past it (the engine clock may end beyond `horizon`, exactly as a real engine
    /// mid-iteration would). A drained server returns 0 immediately.
    pub fn poll(&mut self, horizon: f64) -> u64 {
        let mut steps = 0;
        while self.next_activity().is_some_and(|t| t <= horizon) {
            if !self.tick() {
                break;
            }
            steps += 1;
        }
        steps
    }

    /// Prompt tokens of the requests this server holds — scheduled, backlogged, or
    /// live in the engine — that have not streamed a token yet: KV load the engine's
    /// occupancy counters do not fully show yet.
    pub fn unstarted_prompt_tokens(&self) -> usize {
        self.unstarted_prompt_tokens
    }

    /// Most requests left in the admission backlog after an admission pass so far (0
    /// means backpressure never engaged).
    pub fn max_backlog(&self) -> usize {
        self.max_backlog
    }

    /// The report of the most recent engine iteration, if any ran.
    pub fn last_iteration(&self) -> Option<IterationReport> {
        self.last_report
    }

    /// Submits a request arriving at simulated time `arrival` (clamped to now if it is in
    /// the past) with no streaming callback.
    ///
    /// # Errors
    ///
    /// * [`AdmitError::EngineDown`] — the engine is fail-stopped (see [`Server::fail`]).
    /// * [`AdmitError::NeverAdmissible`] — the full context (prompt + output) exceeds
    ///   the engine's largest KV pool; admitting it would wedge the waitqueue forever.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` is not finite or a length is zero.
    pub fn submit(
        &mut self,
        arrival: f64,
        prompt_len: usize,
        output_len: usize,
    ) -> Result<RequestHandle, AdmitError> {
        self.submit_streaming(arrival, prompt_len, output_len, Vec::new(), None)
    }

    /// Submits a request whose prompt carries identity as [`TokenRun`]s, so a
    /// prefix-caching engine can reuse KV cached from earlier requests that share a
    /// leading run sequence (a fleet-wide system prompt, the history of a chat
    /// session). With prefix caching disabled the runs are ignored; the request
    /// behaves exactly like a [`Server::submit`] of the same lengths.
    ///
    /// See [`Server::submit`] for the errors.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty, if the runs hold no tokens between them, or if
    /// `arrival`/`output_len` are invalid (see [`Server::submit`]). A run of length
    /// zero adds no tokens and is otherwise allowed.
    pub fn submit_with_runs(
        &mut self,
        arrival: f64,
        runs: Vec<TokenRun>,
        output_len: usize,
    ) -> Result<RequestHandle, AdmitError> {
        assert!(!runs.is_empty(), "prompt runs must be non-empty");
        let prompt_len = runs.iter().map(|r| r.len).sum();
        self.submit_streaming(arrival, prompt_len, output_len, runs, None)
    }

    /// Submits a request with a streaming callback invoked once per output token, in
    /// emission order. See [`Server::submit`] for the errors and panics.
    pub fn submit_with_callback<F>(
        &mut self,
        arrival: f64,
        prompt_len: usize,
        output_len: usize,
        callback: F,
    ) -> Result<RequestHandle, AdmitError>
    where
        F: FnMut(&TokenEvent) + 'static,
    {
        self.submit_streaming(arrival, prompt_len, output_len, Vec::new(), Some(Box::new(callback)))
    }

    fn submit_streaming(
        &mut self,
        arrival: f64,
        prompt_len: usize,
        output_len: usize,
        runs: Vec<TokenRun>,
        callback: Option<TokenCallback>,
    ) -> Result<RequestHandle, AdmitError> {
        assert!(arrival.is_finite(), "arrival time must be finite");
        assert!(prompt_len > 0, "prompt length must be positive");
        assert!(output_len > 0, "output length must be positive");
        self.engine.check_admissible(prompt_len + output_len)?;
        let arrival = arrival.max(self.engine.now());
        let id = self.sessions.len() as u64;
        self.sessions.push(Session {
            arrival,
            prompt_len,
            output_len,
            runs,
            state: SessionState::Scheduled,
            callback,
            stream: Stream::default(),
        });
        self.unstarted_prompt_tokens += prompt_len;
        self.push_event(arrival, EventKind::Arrival(id));
        Ok(RequestHandle { id })
    }

    /// Whether the engine is fail-stopped.
    pub fn is_down(&self) -> bool {
        self.engine.is_down()
    }

    /// Fail-stops the engine: its KV is lost, and every request this server was
    /// responsible for — scheduled, backlogged, or live in the engine — is shed with
    /// [`DropReason::EngineFailed`]. Returns the shed request ids in ascending order,
    /// so a cluster router can re-dispatch them to survivors. Until [`Server::recover`]
    /// the server accepts nothing, reports no next activity, and does no work.
    pub fn fail(&mut self) -> Vec<u64> {
        let _ = self.engine.fail();
        self.backlog.clear();
        // Everything held is shed, and finished requests all streamed.
        self.unstarted_prompt_tokens = 0;
        let mut orphans = Vec::new();
        for (id, session) in self.sessions.iter_mut().enumerate() {
            match session.state {
                SessionState::Scheduled | SessionState::Backlogged | SessionState::Running => {
                    session.state = SessionState::Dropped { reason: DropReason::EngineFailed };
                    orphans.push(id as u64);
                }
                SessionState::Finished | SessionState::Cancelled | SessionState::Dropped { .. } => {
                }
            }
        }
        orphans
    }

    /// Brings a fail-stopped engine back into service, empty. Requests shed by
    /// [`Server::fail`] stay shed; new submissions are accepted again.
    pub fn recover(&mut self) {
        self.engine.recover();
    }

    /// Sheds `handle` immediately with a typed reason: the request is evicted wherever
    /// it is (backlog, waitqueue, or mid-decode, freeing its KV) and reaches the
    /// terminal state [`RequestStatus::Dropped`]. Dropping a finished, cancelled, or
    /// already-dropped request is a no-op.
    pub fn drop_now(&mut self, handle: RequestHandle, reason: DropReason) {
        self.end_unfinished(handle.id, SessionState::Dropped { reason });
    }

    /// Schedules a cancellation of `handle` at simulated time `at` (clamped to now).
    /// Cancelling a finished or already-cancelled request is a no-op; cancelling before
    /// the arrival time suppresses the arrival entirely.
    pub fn cancel(&mut self, handle: RequestHandle, at: f64) {
        assert!(at.is_finite(), "cancellation time must be finite");
        self.push_event(at.max(self.engine.now()), EventKind::Cancel(handle.id));
    }

    /// Cancels `handle` at the current simulated time (takes effect before the next
    /// iteration runs).
    pub fn cancel_now(&mut self, handle: RequestHandle) {
        let now = self.engine.now();
        self.cancel(handle, now);
    }

    /// Status of a submitted request.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this server.
    pub fn status(&self, handle: RequestHandle) -> RequestStatus {
        let session = &self.sessions[handle.id as usize];
        match session.state {
            SessionState::Scheduled => RequestStatus::Scheduled,
            SessionState::Backlogged => RequestStatus::Backlogged,
            SessionState::Running => RequestStatus::Running { generated: session.stream.len() },
            // A finished request streamed its whole output, so its stream is never
            // empty.
            SessionState::Finished => RequestStatus::Finished {
                finish_time: session.stream.last().map_or(session.arrival, |i| self.emit_ends[i]),
            },
            SessionState::Cancelled => RequestStatus::Cancelled { generated: session.stream.len() },
            SessionState::Dropped { reason } => {
                RequestStatus::Dropped { reason, generated: session.stream.len() }
            }
        }
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse((SimTime(time), seq, kind)));
    }

    /// Delivers every event due at or before the current simulated time.
    fn deliver_due_events(&mut self) {
        let now = self.engine.now();
        while self.events.peek().is_some_and(|&Reverse((SimTime(time), ..))| time <= now) {
            let Some(Reverse((_, _, kind))) = self.events.pop() else { break };
            match kind {
                EventKind::Arrival(id) => self.deliver_arrival(id),
                EventKind::Cancel(id) => self.end_unfinished(id, SessionState::Cancelled),
            }
        }
    }

    fn deliver_arrival(&mut self, id: u64) {
        let session = &mut self.sessions[id as usize];
        if session.state != SessionState::Scheduled {
            return; // cancelled before arrival
        }
        session.state = SessionState::Backlogged;
        self.backlog.push_back(id);
    }

    /// Moves an unfinished request to the terminal `state`, evicting it wherever it is
    /// (backlog, waitqueue, or mid-decode, freeing its KV); a request that never
    /// streamed stops counting as unstarted. A request already terminal is left as is.
    fn end_unfinished(&mut self, id: u64, state: SessionState) {
        match self.sessions[id as usize].state {
            SessionState::Scheduled | SessionState::Backlogged => {
                self.backlog.retain(|&x| x != id);
            }
            SessionState::Running => {
                // neo-lint: allow(panic-hygiene) -- the session state machine guarantees a live engine-side request; ending it quietly on a miss would corrupt the terminal counts
                let _ = self.engine.evict(id).expect("running session is live");
            }
            SessionState::Finished | SessionState::Cancelled | SessionState::Dropped { .. } => {
                return
            }
        }
        let session = &mut self.sessions[id as usize];
        if session.stream.is_empty() {
            self.unstarted_prompt_tokens -= session.prompt_len;
        }
        session.state = state;
        self.stalled = 0;
    }

    /// Admits backlogged requests in FIFO order while the engine has admission room, then
    /// records the high-water mark of the requests left waiting.
    fn admit_from_backlog(&mut self) {
        while self.engine.can_admit() {
            let Some(id) = self.backlog.pop_front() else { break };
            let session = &mut self.sessions[id as usize];
            session.state = SessionState::Running;
            self.engine
                .submit(Request::with_runs(
                    id,
                    session.arrival,
                    session.prompt_len,
                    session.output_len,
                    // Nothing reads the session's copy after admission.
                    std::mem::take(&mut session.runs),
                ))
                // neo-lint: allow(panic-hygiene) -- admission capacity and down-state were checked before enqueueing, and session ids are fresh and dense (the engine's id window bound needs 2^24 sessions behind a live one); losing a validated submission quietly would wedge the session as Scheduled forever
                .expect("submission was validated against capacity and down-state");
        }
        self.max_backlog = self.max_backlog.max(self.backlog.len());
    }

    /// Streams the tokens of the last iteration's emitters, in id (= submission)
    /// order: records the iteration's end time once, extends each emitter's stream
    /// with its tokens there, and fires its callback per token.
    fn dispatch_tokens(&mut self) {
        let emitters = self.engine.emitted();
        if emitters.is_empty() {
            return;
        }
        let now = self.engine.now();
        let at = self.emit_ends.len();
        self.emit_ends.push(now);
        for &id in emitters {
            let session = &mut self.sessions[id as usize];
            // An emitter the engine no longer holds retired in this step.
            let (generated, finished) = match self.engine.request(id) {
                Some(request) => (request.generated, false),
                None => (session.output_len, true),
            };
            let streamed = session.stream.len();
            if streamed == 0 {
                self.unstarted_prompt_tokens -= session.prompt_len;
            }
            session.stream.record(at, generated - streamed);
            for index in streamed..generated {
                self.streamed_tokens += 1;
                let event = TokenEvent {
                    request_id: id,
                    index,
                    time: now,
                    is_last: finished && index + 1 == generated,
                };
                if let Some(callback) = session.callback.as_mut() {
                    callback(&event);
                }
            }
            if finished {
                session.state = SessionState::Finished;
            }
        }
    }

    /// Advances the loop by one engine iteration, delivering due events, applying
    /// admission, and streaming freshly emitted tokens. Returns `false` once every
    /// submitted request has finished (or been cancelled) and no events remain.
    ///
    /// # Panics
    ///
    /// Panics if the stall budget ([`DEFAULT_STALL_BUDGET`], or the one set by
    /// [`Server::with_max_iterations`]) runs out: that many iterations in a row without
    /// progress (scheduler livelock), or if a request reaches admission
    /// [`neo_kvcache::MAX_ID_WINDOW`] submissions after one the engine still holds, past
    /// the ids its request table indexes.
    pub fn tick(&mut self) -> bool {
        loop {
            self.deliver_due_events();
            self.admit_from_backlog();
            if !self.engine.is_idle() {
                break;
            }
            // An idle engine always has admission room, so the backlog is empty here.
            debug_assert!(self.backlog.is_empty());
            let Some(&Reverse((SimTime(time), _, kind))) = self.events.peek() else {
                return false;
            };
            // Only an arrival of a still-scheduled request can create engine work, so
            // only that advances the clock. Everything else pending while idle is
            // inert — a cancel whose target already drained, or an arrival suppressed
            // by an earlier cancel — and is delivered immediately so it cannot drag
            // the makespan (and every throughput metric derived from it) out to its
            // timestamp.
            let creates_work = matches!(
                kind,
                EventKind::Arrival(id)
                    if self.sessions[id as usize].state == SessionState::Scheduled
            );
            if creates_work {
                self.engine.advance_to(time.max(self.engine.now()));
            } else {
                // `kind` is a copy of the head event's; drop the event and act on it.
                let _ = self.events.pop();
                match kind {
                    EventKind::Arrival(id) => self.deliver_arrival(id),
                    EventKind::Cancel(id) => self.end_unfinished(id, SessionState::Cancelled),
                }
            }
        }
        let report = self.engine.step();
        self.iterations += 1;
        self.stalled = if self.engine.emitted().is_empty() { self.stalled + 1 } else { 0 };
        assert!(
            self.stalled < self.max_iterations,
            "serving loop exceeded {} iterations without progress with {} of {} requests \
             finished",
            self.max_iterations,
            self.engine.completed(),
            self.sessions.len()
        );
        if !report.idle {
            self.busy_iterations += 1;
            if report.cpu_offloaded > 0 {
                self.offload_iterations += 1;
            }
            if report.mode == ExecutionMode::Asymmetric {
                self.asymmetric_iterations += 1;
            }
        }
        self.last_report = Some(report);
        self.dispatch_tokens();
        true
    }

    /// Runs the loop until it drains, then summarises it.
    pub fn run_until_idle(&mut self) -> ServerReport {
        while self.tick() {}
        self.report()
    }

    /// Emission time of each token `handle` has streamed so far, in order, rebuilt
    /// from the request's stream.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this server.
    pub fn token_times(&self, handle: RequestHandle) -> Vec<f64> {
        self.sessions[handle.id as usize].stream.indices().map(|i| self.emit_ends[i]).collect()
    }

    /// Folds the token streams of `streams` — each a request of this server with the
    /// arrival its time to first token counts from — into `fold`.
    ///
    /// # Panics
    ///
    /// Panics if a handle does not belong to this server.
    pub fn fold_latency(
        &self,
        fold: &mut LatencyFold,
        streams: impl IntoIterator<Item = (f64, RequestHandle)>,
    ) {
        fold.add(
            &self.emit_ends,
            streams
                .into_iter()
                .map(|(arrival, handle)| (arrival, &self.sessions[handle.id as usize].stream)),
        );
    }

    /// `(arrival, finish time, output length)` of every finished request, in
    /// completion order: finish time, ties by id.
    pub(crate) fn completions(&self) -> Vec<(f64, f64, usize)> {
        let mut done: Vec<(f64, f64, usize)> = self
            .sessions
            .iter()
            .filter(|s| s.state == SessionState::Finished)
            .filter_map(|s| Some((s.arrival, self.emit_ends[s.stream.last()?], s.output_len)))
            .collect();
        // Stable: same-instant completions stay in id order.
        done.sort_by(|a, b| a.1.total_cmp(&b.1));
        done
    }

    /// Counts the requests in each terminal state and reads the streaming totals.
    pub fn counts(&self) -> ServerCounts {
        let (mut completed, mut cancelled, mut dropped) = (0, 0, 0);
        for session in &self.sessions {
            match session.state {
                SessionState::Finished => completed += 1,
                SessionState::Cancelled => cancelled += 1,
                SessionState::Dropped { .. } => dropped += 1,
                SessionState::Scheduled | SessionState::Backlogged | SessionState::Running => {}
            }
        }
        ServerCounts {
            completed,
            cancelled,
            dropped,
            streamed_tokens: self.streamed_tokens,
            offload_fraction: self.offload_iterations as f64 / self.busy_iterations.max(1) as f64,
            asymmetric_fraction: self.asymmetric_iterations as f64
                / self.busy_iterations.max(1) as f64,
        }
    }

    /// Summarises the loop so far (normally read after [`Server::run_until_idle`]). The
    /// latency summaries fold every session's stream, partial ones included.
    pub fn report(&self) -> ServerReport {
        let mut fold = LatencyFold::default();
        fold.add(&self.emit_ends, self.sessions.iter().map(|s| (s.arrival, &s.stream)));
        let (ttft, itl) = fold.summaries();
        let ServerCounts {
            completed, cancelled, dropped, streamed_tokens, offload_fraction, ..
        } = self.counts();
        ServerReport {
            completed,
            cancelled,
            dropped,
            makespan: self.engine.now(),
            iterations: self.iterations,
            offload_fraction,
            streamed_tokens,
            ttft,
            itl,
            max_backlog: self.max_backlog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use neo_baselines::GpuOnlyScheduler;
    use neo_core::config::{EngineConfig, MAX_WAITING_REQUESTS};
    use neo_core::scheduler::NeoScheduler;
    use neo_core::ScheduleDecision;
    use neo_sim::{CostModel, ModelDesc, Testbed};

    fn engine() -> Engine {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        Engine::new(cost, EngineConfig::default(), Box::new(NeoScheduler::new()))
    }

    fn vllm_engine() -> Engine {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        Engine::new(cost, EngineConfig::default(), Box::new(GpuOnlyScheduler::vllm_like()))
    }

    #[test]
    fn single_request_streams_every_token_once() {
        let mut server = Server::new(engine());
        let seen: Rc<RefCell<Vec<TokenEvent>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let handle = server
            .submit_with_callback(0.0, 200, 24, move |e| {
                sink.borrow_mut().push(*e);
            })
            .unwrap();
        let report = server.run_until_idle();
        assert_eq!(report.completed, 1);
        let events = seen.borrow();
        assert_eq!(events.len(), 24);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.index, i, "tokens arrive exactly once, in order");
            assert_eq!(e.request_id, handle.id());
            assert_eq!(e.is_last, i == 23);
        }
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(report.streamed_tokens, 24);
        // The request finishes at its last token. A lightly loaded A10G serving
        // LLaMa-3.1-8B produces tokens at tens of milliseconds each, not microseconds
        // or minutes.
        let RequestStatus::Finished { finish_time } = server.status(handle) else {
            panic!("expected finished, got {:?}", server.status(handle));
        };
        assert_eq!(finish_time, events[23].time);
        let per_token = finish_time / 24.0;
        assert!(per_token > 1e-3 && per_token < 1.0, "per-token latency {per_token}");
    }

    #[test]
    fn ttft_and_itl_are_positive_and_consistent() {
        let mut server = Server::new(engine());
        for i in 0..8 {
            server.submit(i as f64 * 0.3, 300, 20).unwrap();
        }
        let report = server.run_until_idle();
        assert_eq!(report.completed, 8);
        let ttft = report.ttft.expect("all requests produced tokens");
        let itl = report.itl.expect("outputs longer than one token");
        assert_eq!(ttft.count, 8);
        assert!(ttft.mean > 0.0);
        assert_eq!(itl.count, 8 * 19);
        assert!(itl.mean > 0.0);
        assert!(itl.p50 <= itl.p99);
    }

    #[test]
    fn retained_timeline_entries_are_pinned() {
        // NEO on the T4 under a burst offloads attention to the CPU in most iterations,
        // and a request left out of an iteration breaks its stream into another run.
        let cost = CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1);
        let engine = Engine::new(cost, EngineConfig::default(), Box::new(NeoScheduler::new()));
        let mut server = Server::new(engine);
        for i in 0..24 {
            server.submit(i as f64 * 0.05, 600 + 40 * i, 120).unwrap();
        }
        let report = server.run_until_idle();
        assert_eq!(report.completed, 24);
        assert!(report.offload_fraction > 0.5);
        assert_eq!(report.streamed_tokens, 2_880);
        // One end time per emitting iteration and one run per stretch of consecutive
        // emitting iterations: 900 entries where a per-token record keeps 2,880.
        let runs: usize = server.sessions.iter().map(|s| s.stream.runs()).sum();
        assert_eq!((server.emit_ends.len(), runs), (863, 37));
    }

    #[test]
    fn cancellation_mid_decode_frees_kv_and_stops_streaming() {
        let mut server = Server::new(engine());
        let long = server.submit(0.0, 400, 5_000).unwrap();
        let short = server.submit(0.0, 400, 30).unwrap();
        // Run until the long request has streamed a few tokens.
        while server.sessions[long.id() as usize].stream.len() < 3 {
            assert!(server.tick());
        }
        assert_eq!(server.engine().kv().num_sequences(), 2);
        server.cancel_now(long);
        assert!(server.tick());
        assert_eq!(
            server.engine().kv().num_sequences(),
            1,
            "cancelled KV blocks must be freed immediately"
        );
        let streamed_at_cancel = match server.status(long) {
            RequestStatus::Cancelled { generated } => generated,
            other => panic!("expected cancelled, got {other:?}"),
        };
        let report = server.run_until_idle();
        assert_eq!(report.completed, 1);
        assert_eq!(report.cancelled, 1);
        assert_eq!(
            server.sessions[long.id() as usize].stream.len(),
            streamed_at_cancel,
            "no tokens stream after cancellation"
        );
        assert_eq!(server.engine().kv().num_sequences(), 0);
        assert!(matches!(server.status(short), RequestStatus::Finished { .. }));
    }

    #[test]
    fn cancel_before_arrival_suppresses_the_request() {
        let mut server = Server::new(engine());
        let a = server.submit(5.0, 100, 10).unwrap();
        let b = server.submit(0.0, 100, 10).unwrap();
        server.cancel(a, 1.0);
        let report = server.run_until_idle();
        assert_eq!(report.completed, 1);
        assert_eq!(report.cancelled, 1);
        assert!(matches!(server.status(a), RequestStatus::Cancelled { generated: 0 }));
        assert!(matches!(server.status(b), RequestStatus::Finished { .. }));
        // Neither the suppressed arrival at t=5 nor the cancel at t=1 is real work, so
        // the clock must stop when the last real request drains.
        assert!(report.makespan < 1.0, "inert events must not inflate makespan");
        // Double-cancel and cancel-after-finish are no-ops.
        server.cancel_now(a);
        server.cancel_now(b);
        assert!(!server.tick());
        assert_eq!(server.report().cancelled, 1);
    }

    #[test]
    fn late_noop_cancel_does_not_inflate_makespan() {
        // A timeout-style cancellation scheduled far in the future must not drag the
        // makespan out to its timestamp once the request has already finished.
        let mut server = Server::new(engine());
        let h = server.submit(0.0, 100, 10).unwrap();
        server.cancel(h, 300.0);
        let report = server.run_until_idle();
        assert_eq!(report.completed, 1);
        assert_eq!(report.cancelled, 0);
        assert!(matches!(server.status(h), RequestStatus::Finished { .. }));
        assert!(
            report.makespan < 10.0,
            "makespan {} must reflect the real work, not the dead cancel event",
            report.makespan
        );
    }

    #[test]
    fn backpressure_delays_but_never_drops() {
        let mut server = Server::new(vllm_engine());
        let total = MAX_WAITING_REQUESTS + 24;
        let handles: Vec<RequestHandle> =
            (0..total).map(|_| server.submit(0.0, 16, 2).unwrap()).collect();
        // Deliver the arrivals: only the waitqueue's worth enter the engine, the rest
        // must queue server-side.
        assert!(server.tick());
        assert_eq!(server.backlog_len(), 24, "backpressure must engage");
        let report = server.run_until_idle();
        assert_eq!(report.completed, total, "backpressure delays requests, never drops them");
        assert_eq!(report.cancelled, 0);
        assert_eq!(report.max_backlog, 24, "only the requests past the waitqueue waited");
        for h in handles {
            assert!(matches!(server.status(h), RequestStatus::Finished { .. }));
        }
    }

    #[test]
    fn a_burst_the_waitqueue_holds_never_backlogs() {
        let mut server = Server::new(vllm_engine());
        for _ in 0..MAX_WAITING_REQUESTS {
            server.submit(0.0, 16, 2).unwrap();
        }
        let report = server.run_until_idle();
        assert_eq!(report.completed, MAX_WAITING_REQUESTS);
        assert_eq!(report.max_backlog, 0, "backpressure never engaged");
    }

    #[test]
    fn events_fire_in_time_order_even_when_submitted_out_of_order() {
        let mut server = Server::new(engine());
        let late = server.submit(2.0, 100, 4).unwrap();
        let early = server.submit(0.5, 100, 4).unwrap();
        let report = server.run_until_idle();
        assert_eq!(report.completed, 2);
        let first_late = server.token_times(late)[0];
        let first_early = server.token_times(early)[0];
        assert!(first_early < first_late, "the earlier arrival streams first");
        assert!(report.makespan >= 2.0);
        let RequestStatus::Finished { finish_time } = server.status(late) else {
            panic!("expected finished, got {:?}", server.status(late));
        };
        let latency = finish_time - 2.0;
        assert!(latency > 0.0 && latency < 2.0, "latency {latency} is measured from arrival");
    }

    #[test]
    fn queue_depth_counts_backlog_and_live_engine_requests() {
        let mut server = Server::new(vllm_engine());
        assert_eq!(server.queue_depth(), 0);
        let total = MAX_WAITING_REQUESTS + 4;
        for _ in 0..total {
            server.submit(0.0, 16, 8).unwrap();
        }
        assert!(server.tick());
        // A full waitqueue admitted into the engine, four held in the server backlog:
        // the router signal must count both.
        assert_eq!(server.backlog_len(), 4);
        assert_eq!(server.queue_depth(), server.backlog_len() + server.engine().live_requests());
        assert_eq!(server.queue_depth(), total, "nothing finished after one iteration");
        let _ = server.run_until_idle();
        assert_eq!(server.queue_depth(), 0);
    }

    #[test]
    fn next_activity_tracks_arrivals_and_busy_engine_clock() {
        let mut server = Server::new(engine());
        assert_eq!(server.next_activity(), None);
        server.submit(3.0, 100, 4).unwrap();
        server.submit(7.0, 100, 4).unwrap();
        assert_eq!(server.next_activity(), Some(3.0), "idle server wakes at the next arrival");
        assert!(server.tick());
        let busy = server.next_activity().expect("engine is busy");
        assert_eq!(busy, server.now(), "a busy engine can start its next iteration now");
        let _ = server.run_until_idle();
        assert_eq!(server.next_activity(), None);
    }

    #[test]
    fn next_activity_ignores_arrivals_suppressed_by_earlier_cancels() {
        let mut server = Server::new(engine());
        let doomed = server.submit(5.0, 100, 4).unwrap();
        server.cancel(doomed, 1.0);
        // The only pending arrival is suppressed by the earlier cancel: waking at 5.0
        // would only deliver inert events, so the server reports no activity.
        assert_eq!(server.next_activity(), None);
        let live = server.submit(8.0, 100, 4).unwrap();
        assert_eq!(server.next_activity(), Some(8.0));
        let report = server.run_until_idle();
        assert_eq!(report.completed, 1);
        assert!(matches!(server.status(doomed), RequestStatus::Cancelled { generated: 0 }));
        assert!(matches!(server.status(live), RequestStatus::Finished { .. }));
    }

    #[test]
    fn poll_runs_only_work_starting_at_or_before_the_horizon() {
        let mut server = Server::new(engine());
        server.submit(0.0, 200, 6).unwrap();
        server.submit(50.0, 200, 6).unwrap();
        let steps = server.poll(10.0);
        assert!(steps > 0, "the t=0 request runs inside the horizon");
        assert_eq!(server.engine().completed(), 1);
        assert_eq!(
            server.next_activity(),
            Some(50.0),
            "the t=50 arrival is untouched by an earlier poll"
        );
        // Iterations are atomic: a poll exactly at an arrival runs its first
        // iteration even though it finishes past the horizon.
        let steps = server.poll(50.0);
        assert!(steps >= 1);
        assert!(server.now() >= 50.0);
        let _ = server.run_until_idle();
        assert_eq!(server.poll(f64::MAX), 0, "a drained server has nothing to poll");
    }

    #[test]
    fn idle_server_reports_empty_drain() {
        let mut server = Server::new(engine());
        assert!(!server.tick());
        let report = server.report();
        assert_eq!(report.completed, 0);
        assert_eq!(report.iterations, 0);
        assert!(report.ttft.is_none());
        assert!(report.itl.is_none());
    }

    #[test]
    #[should_panic(expected = "fresh engine")]
    fn used_engine_is_rejected() {
        let mut e = engine();
        e.submit(Request::new(0, 0.0, 10, 2)).unwrap();
        let _ = Server::new(e);
    }

    #[test]
    fn never_admissible_submission_is_rejected_typed() {
        let mut server = Server::new(engine());
        let capacity = server.engine().max_context_capacity();
        let err = server.submit(0.0, capacity, 1).unwrap_err();
        assert!(matches!(err, AdmitError::NeverAdmissible { .. }));
        assert!(!server.tick(), "a rejected request leaves no work behind");
        assert_eq!(server.report().dropped, 0, "rejected is not dropped: it never entered");
    }

    #[test]
    fn down_server_reports_no_activity_and_rejects_submissions() {
        let mut server = Server::new(engine());
        server.submit(0.0, 200, 40).unwrap();
        server.submit(0.0, 200, 40).unwrap();
        // Stream a few tokens so the failure lands mid-decode.
        while server.engine().completed() == 0 && server.streamed_tokens < 3 {
            assert!(server.tick());
        }
        assert!(!server.is_down());
        let orphans = server.fail();
        assert!(server.is_down());
        assert_eq!(orphans, vec![0, 1], "both live requests are orphaned, id-sorted");
        assert_eq!(
            server.next_activity(),
            None,
            "a down server must report no next activity, not spin"
        );
        assert_eq!(server.poll(f64::MAX), 0, "polling a down server does nothing");
        assert_eq!(server.submit(server.now(), 100, 4), Err(AdmitError::EngineDown));
        for &id in &orphans {
            assert!(matches!(
                server.status(RequestHandle { id }),
                RequestStatus::Dropped { reason: DropReason::EngineFailed, .. }
            ));
        }
        let report = server.report();
        assert_eq!(report.dropped, 2);
        assert_eq!(report.completed, 0);
        // Recovery restores service from empty.
        server.recover();
        assert!(!server.is_down());
        let h = server.submit(server.now(), 100, 4).unwrap();
        let report = server.run_until_idle();
        assert_eq!(report.completed, 1);
        assert!(matches!(server.status(h), RequestStatus::Finished { .. }));
        assert_eq!(report.dropped, 2, "orphans stay shed after recovery");
    }

    #[test]
    fn drop_now_sheds_mid_decode_and_frees_kv() {
        let mut server = Server::new(engine());
        let victim = server.submit(0.0, 400, 5_000).unwrap();
        let survivor = server.submit(0.0, 400, 30).unwrap();
        while server.sessions[victim.id() as usize].stream.len() < 3 {
            assert!(server.tick());
        }
        assert_eq!(server.engine().kv().num_sequences(), 2);
        server.drop_now(victim, DropReason::DeadlineExpired);
        assert_eq!(server.engine().kv().num_sequences(), 1, "dropped KV is freed immediately");
        assert!(matches!(
            server.status(victim),
            RequestStatus::Dropped { reason: DropReason::DeadlineExpired, generated: 3 }
        ));
        // Dropping again (or dropping a finished request) is a no-op.
        server.drop_now(victim, DropReason::RetriesExhausted);
        let report = server.run_until_idle();
        assert_eq!(report.completed, 1);
        assert_eq!(report.dropped, 1);
        assert!(matches!(
            server.status(victim),
            RequestStatus::Dropped { reason: DropReason::DeadlineExpired, .. }
        ));
        server.drop_now(survivor, DropReason::DeadlineExpired);
        assert_eq!(server.report().dropped, 1, "finished requests cannot be dropped");
    }

    #[test]
    fn unstarted_prompt_tokens_count_held_requests_until_their_first_token() {
        // A full waitqueue holds `queued` in the backlog: `long`, whose 2000-token prompt
        // prefills in 512-token chunks, and one-token fillers behind it.
        let mut server = Server::new(engine());
        let long = server.submit(0.0, 2_000, 4).unwrap();
        let fillers: Vec<RequestHandle> =
            (1..MAX_WAITING_REQUESTS).map(|_| server.submit(0.0, 1, 1).unwrap()).collect();
        let unstarted_fillers =
            |server: &Server| fillers.iter().filter(|&&h| server.token_times(h).is_empty()).count();
        let queued = server.submit(0.0, 300, 4).unwrap();
        let later = server.submit(50.0, 200, 4).unwrap();
        let doomed = server.submit(60.0, 100, 4).unwrap();
        assert_eq!(server.unstarted_prompt_tokens(), 2_600 + fillers.len());
        server.cancel_now(doomed);
        assert!(server.tick());
        assert!(matches!(server.status(doomed), RequestStatus::Cancelled { generated: 0 }));
        assert_eq!(server.status(queued), RequestStatus::Backlogged);
        assert_eq!(server.status(later), RequestStatus::Scheduled);
        assert_eq!(
            server.unstarted_prompt_tokens(),
            2_500 + unstarted_fillers(&server),
            "cancelled before it started"
        );
        let prefilled = server.engine().request(long.id()).map_or(0, |r| r.prefilled);
        assert!(prefilled > 0 && prefilled < 2_000, "long is mid-prefill");
        server.drop_now(long, DropReason::DeadlineExpired);
        assert_eq!(
            server.unstarted_prompt_tokens(),
            500 + unstarted_fillers(&server),
            "dropped mid-prefill"
        );
        while server.token_times(queued).is_empty() {
            assert!(server.tick());
        }
        assert_eq!(unstarted_fillers(&server), 0, "the fillers ahead of it streamed first");
        assert_eq!(server.unstarted_prompt_tokens(), 200, "queued streamed its first token");
        let _ = server.fail();
        assert_eq!(server.unstarted_prompt_tokens(), 0, "a failed server holds nothing");
        server.recover();
        server.submit(server.now(), 400, 4).unwrap();
        server.submit(server.now() + 1.0, 300, 4).unwrap();
        assert_eq!(server.unstarted_prompt_tokens(), 700);
        let _ = server.run_until_idle();
        assert_eq!(server.unstarted_prompt_tokens(), 0);
    }

    /// A livelocked policy: it stays idle whatever waits.
    struct IdlePolicy;

    impl neo_core::Scheduler for IdlePolicy {
        fn schedule(&mut self, _ctx: &neo_core::ScheduleContext<'_>) -> ScheduleDecision {
            ScheduleDecision::idle()
        }

        fn name(&self) -> &'static str {
            "idle"
        }
    }

    #[test]
    #[should_panic(expected = "exceeded 1000000 iterations without progress with 0 of 1 requests")]
    fn a_server_is_stall_guarded_by_default() {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let idle = Engine::new(cost, EngineConfig::default(), Box::new(IdlePolicy));
        let mut server = Server::new(idle);
        server.submit(0.0, 100, 40).unwrap();
        let _ = server.run_until_idle();
    }

    #[test]
    #[should_panic(expected = "exceeded 3 iterations without progress with 0 of 1 requests")]
    fn iteration_budget_panics_after_iterations_without_progress() {
        // The budget counts stalls, not work: a 40-iteration run under a budget of 3
        // finishes, because every iteration streams a token.
        let mut server = Server::new(engine()).with_max_iterations(3);
        server.submit(0.0, 100, 40).unwrap();
        assert_eq!(server.run_until_idle().completed, 1);
        // A policy that never schedules the waiting request stalls from the start.
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let idle = Engine::new(cost, EngineConfig::default(), Box::new(IdlePolicy));
        let mut server = Server::new(idle).with_max_iterations(3);
        server.submit(0.0, 100, 40).unwrap();
        let _ = server.run_until_idle();
    }
}
