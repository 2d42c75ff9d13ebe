//! The iteration-level execution engine.
//!
//! [`Engine`] owns the request queues, the paged KV cache accounting and the simulation
//! clock. Every [`Engine::step`] asks the configured [`Scheduler`] for a decision, applies
//! the KV swaps and prefill admissions it requested, "executes" the iteration by charging
//! its duration from the exact cost model (the scheduler only ever saw the
//! profiled/interpolated model, like the real system), generates output tokens, retires
//! finished requests and advances the clock. A retired request leaves the engine: it
//! keeps counts, not an archive, and the serving layer's token timeline is the one
//! record of when each token came.
//!
//! The same engine executes NEO and every baseline policy, so throughput/latency
//! comparisons only reflect scheduling differences — mirroring how the paper implements
//! FastDecode+ on top of NEO's own runtime.

use std::collections::BTreeSet;

use neo_kvcache::manager::{KvCacheConfig, KvCacheManager};
use neo_kvcache::{Device, IdTable, TokenRun};
use neo_sim::profiler::ProfiledCostModel;
use neo_sim::{CostModel, SimClock};

use crate::admit::AdmitError;
use crate::config::EngineConfig;
use crate::cpu_order::CpuOrder;
use crate::pipeline::estimate_decision;
use crate::request::Request;
use crate::scheduler::{ScheduleContext, Scheduler};
use crate::ExecutionMode;

/// Time charged for a scheduling quantum in which nothing could run.
const IDLE_QUANTUM: f64 = 1e-3;

/// Tokens per KV block used by the engine's cache accounting.
const BLOCK_SIZE: usize = 16;

/// Namespace bit for the synthetic token runs given to requests submitted without a
/// workload-provided prompt identity. Each such prompt gets a run unique to its request
/// id, so it can be indexed by the prefix cache but never matches another prompt.
/// Workload generators must keep their run ids below this bit.
const OPAQUE_RUN_NS: u64 = 1 << 63;

/// Summary of one executed iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationReport {
    /// Iteration index (1-based).
    pub iteration: u64,
    /// Simulated time at which the iteration started.
    pub start_time: f64,
    /// Iteration duration in seconds.
    pub duration: f64,
    /// Execution mode chosen by the scheduler.
    pub mode: ExecutionMode,
    /// Sequences that produced an output token.
    pub batch_size: usize,
    /// Prompt tokens prefilled this iteration.
    pub prefill_tokens: usize,
    /// Output tokens generated this iteration.
    pub decode_tokens: usize,
    /// Decode requests whose attention ran on the CPU.
    pub cpu_offloaded: usize,
    /// Requests swapped GPU→CPU before the iteration.
    pub swapped_out: usize,
    /// Requests swapped CPU→GPU before the iteration.
    pub swapped_in: usize,
    /// Requests demoted CPU→disk before the iteration (0 unless the disk tier is on).
    pub demoted_disk: usize,
    /// Requests promoted disk→CPU before the iteration.
    pub promoted_disk: usize,
    /// Whether the iteration was an idle quantum (no work executed).
    pub idle: bool,
}

/// The iteration-level serving engine.
pub struct Engine {
    cost: CostModel,
    sched_cost: ProfiledCostModel,
    config: EngineConfig,
    scheduler: Box<dyn Scheduler>,
    kv: KvCacheManager,
    clock: SimClock,
    requests: IdTable<Request>,
    waiting: Vec<u64>,
    gpu_run: Vec<u64>,
    cpu_run: Vec<u64>,
    /// `cpu_run`'s requests by ascending context, ties in `cpu_run` order.
    cpu_order: CpuOrder,
    disk_run: Vec<u64>,
    /// Each partially prefilled request's device; its ids are live requests', so it
    /// never refuses an insert the request table took.
    prefill_device: IdTable<Device>,
    /// Ids of every finished request, for the duplicate-id check.
    retired: BTreeSet<u64>,
    /// Ids that produced an output token in the most recent [`Engine::step`], in
    /// ascending order, each once.
    emitted: Vec<u64>,
    iterations: u64,
    total_decode_tokens: u64,
    total_prefill_tokens: u64,
    /// Fail-stopped: every submission is refused until [`Engine::recover`].
    down: bool,
    /// The owner and pool of the progress rule's last move: the pool's freed blocks
    /// are the owner's until it allocates or leaves (see [`Engine::enforce_progress`]).
    reserved: Option<(u64, Device)>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("scheduler", &self.scheduler.name())
            .field("now", &self.clock.now())
            .field("waiting", &self.waiting.len())
            .field("gpu_run", &self.gpu_run.len())
            .field("cpu_run", &self.cpu_run.len())
            .field("completed", &self.retired.len())
            .finish()
    }
}

impl Engine {
    /// Creates an engine for the given cost model (hardware + model), configuration and
    /// scheduling policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`EngineConfig::validate`]).
    pub fn new(cost: CostModel, config: EngineConfig, scheduler: Box<dyn Scheduler>) -> Self {
        let problems = config.validate();
        assert!(problems.is_empty(), "invalid engine config: {}", problems.join("; "));
        // Reserve activations for exactly the number of tokens this engine will ever
        // batch, so the GPU KV budget matches the configured batching limit. The GPU
        // pool is sized from the tightest tensor-parallel rank: a token is admitted only
        // if every rank can hold its KV shard.
        let cost = cost.with_max_batch_tokens(config.max_batch_tokens);
        let disk_capacity = if config.disk_tier { cost.disk_kv_capacity_tokens() } else { 0 };
        let kv = KvCacheManager::with_features(
            KvCacheConfig {
                block_size: BLOCK_SIZE,
                gpu_capacity_tokens: cost.gpu_kv_capacity_tokens(),
                cpu_capacity_tokens: cost.cpu_kv_capacity_tokens(),
                kv_bytes_per_token: cost.kv_bytes_per_token(),
            },
            config.prefix_cache,
            disk_capacity,
        );
        let sched_cost = ProfiledCostModel::with_noise(cost.clone(), config.profile_noise);
        Self {
            cost,
            sched_cost,
            config,
            scheduler,
            kv,
            clock: SimClock::new(),
            requests: IdTable::new(),
            waiting: Vec::new(),
            gpu_run: Vec::new(),
            cpu_run: Vec::new(),
            cpu_order: CpuOrder::default(),
            disk_run: Vec::new(),
            prefill_device: IdTable::new(),
            retired: BTreeSet::new(),
            emitted: Vec::new(),
            iterations: 0,
            total_decode_tokens: 0,
            total_prefill_tokens: 0,
            down: false,
            reserved: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Moves the clock forward to `t` (used by the serving loop to jump to the next
    /// arrival when the engine is idle).
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: f64) {
        self.clock.advance_to(t);
    }

    /// Submits a new request; on success it joins the prefill waitqueue.
    ///
    /// Refuses (typed, never by silent wedge) ids the engine cannot key and requests
    /// it can never serve, in this order, leaving the engine unchanged:
    /// * [`AdmitError::DuplicateId`] — a request with the same id is live or finished;
    /// * [`AdmitError::IdOutOfWindow`] — the id lies [`neo_kvcache::MAX_ID_WINDOW`] or
    ///   more ids from a live request's, past what the request table indexes;
    /// * [`AdmitError::EngineDown`] — the engine is fail-stopped;
    /// * [`AdmitError::NeverAdmissible`] — the context fits in none of its KV pools
    ///   (see [`Engine::max_context_capacity`]).
    pub fn submit(&mut self, request: Request) -> Result<(), AdmitError> {
        let id = request.id;
        if self.requests.contains(id) || self.retired.contains(&id) {
            return Err(AdmitError::DuplicateId(id));
        }
        self.requests.fits(id)?;
        self.check_admissible(request.total_tokens())?;
        self.requests.insert(id, request)?;
        self.waiting.push(id);
        if self.config.prefix_cache {
            self.adopt_prefix_on_submit(id);
        }
        Ok(())
    }

    /// Whether a request of `total_tokens` (prompt + output) could be submitted now,
    /// whatever its id: the two refusals of [`Engine::submit`] that depend on the engine
    /// alone, in its order.
    ///
    /// # Errors
    ///
    /// * [`AdmitError::EngineDown`] — the engine is fail-stopped;
    /// * [`AdmitError::NeverAdmissible`] — the context fits in none of its KV pools
    ///   (see [`Engine::max_context_capacity`]).
    pub fn check_admissible(&self, total_tokens: usize) -> Result<(), AdmitError> {
        if self.down {
            return Err(AdmitError::EngineDown);
        }
        let capacity = self.max_context_capacity();
        if total_tokens > capacity {
            return Err(AdmitError::NeverAdmissible {
                required_tokens: total_tokens,
                capacity_tokens: capacity,
            });
        }
        Ok(())
    }

    /// Tries to serve the head of a newly submitted request's prompt from the
    /// shared-prefix cache. On a hit the matching span is marked prefilled immediately
    /// (adopted copy-on-write from the cache, pinning the request's remaining prefill to
    /// the GPU); only the uncached remainder — always at least one token — is left for
    /// the prefill scheduler. Requests without a workload-provided prompt identity get a
    /// unique synthetic token run: they can be indexed but never match another prompt,
    /// so with zero sharing in the trace the cache changes nothing by construction.
    /// Requests whose total context exceeds the GPU pool are skipped — adopted blocks
    /// are GPU-resident and such requests may need to live on the CPU.
    fn adopt_prefix_on_submit(&mut self, id: u64) {
        let Some(req) = self.requests.get_mut(id) else { return };
        if req.total_tokens() > self.kv.pool(Device::Gpu).capacity_tokens() {
            return;
        }
        if req.prompt_runs.is_empty() {
            req.prompt_runs = vec![TokenRun { id: OPAQUE_RUN_NS | id, len: req.prompt_len }];
        }
        // `submit` inserted a fresh id one call above, so adoption cannot fail;
        // treating a failure as a cache miss keeps this path panic-free.
        let Ok(adoption) = self.kv.adopt_prefix(id, &req.prompt_runs, req.prompt_len - 1) else {
            return;
        };
        if adoption.cached_tokens > 0 {
            req.advance_prefill(adoption.cached_tokens);
            let _ = self.prefill_device.insert(id, Device::Gpu);
        }
    }

    /// The largest total context (prompt + output tokens) a single request can ever
    /// hold on this engine. A sequence's KV lives wholly on one device (swaps move
    /// whole sequences), so the binding limit is the *largest* of the pools the policy
    /// keeps KV in ([`Scheduler::kv_pools`]), not their sum — the GPU pool alone for a
    /// GPU-only policy, the host cache alone for a full-offload one — counted in whole
    /// blocks: a request above this can never finish and is refused at
    /// [`Engine::submit`].
    pub fn max_context_capacity(&self) -> usize {
        self.scheduler
            .kv_pools()
            .iter()
            .map(|&pool| self.kv.pool(pool).capacity_tokens())
            .max()
            .unwrap_or(0)
    }

    /// Fail-stops the engine: every live request is evicted (its KV is lost, exactly
    /// as a crashed process loses device and host memory) and returned in id order, as
    /// it stood; until [`Engine::recover`] the engine refuses submissions
    /// ([`AdmitError::EngineDown`]) and reports no admission room. Already-completed
    /// requests stay counted — the failure loses state, not history.
    pub fn fail(&mut self) -> Vec<Request> {
        self.down = true;
        let ids: Vec<u64> = self.requests.ids().collect();
        ids.into_iter().filter_map(|id| self.evict(id)).collect()
    }

    /// Brings a fail-stopped engine back: it restarts empty (the failure discarded
    /// all KV and queue state) and admits requests again.
    pub fn recover(&mut self) {
        self.down = false;
    }

    /// Whether the engine is fail-stopped (see [`Engine::fail`]).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Whether no request is waiting or running.
    pub fn is_idle(&self) -> bool {
        self.requests.is_empty()
    }

    /// Whether the prefill waitqueue has room for another admission.
    ///
    /// This is the engine's admission-backpressure signal: when the waitqueue already
    /// holds [`EngineConfig::max_waiting_requests`] requests, a serving loop should hold
    /// further arrivals in its own backlog (delaying, never dropping them) instead of
    /// calling [`Engine::submit`]. A fail-stopped engine has no admission room at all.
    pub fn can_admit(&self) -> bool {
        !self.down && self.waiting.len() < self.config.max_waiting_requests
    }

    /// A live (submitted, not yet finished or evicted) request by id.
    pub fn request(&self, id: u64) -> Option<&Request> {
        self.requests.get(id)
    }

    /// Evicts a live request mid-flight (serving-layer cancellation): its KV blocks are
    /// freed immediately — even mid-decode — it is removed from every queue, and it is
    /// returned as it stood. Returns `None` if the id is not live (never submitted,
    /// already finished, or already evicted); finished requests stay counted in
    /// [`Engine::completed`].
    pub fn evict(&mut self, id: u64) -> Option<Request> {
        let request = self.requests.remove(id)?;
        self.release_execution_state(id);
        self.waiting.retain(|&x| x != id);
        self.lift_reservation(id);
        Some(request)
    }

    /// Frees a request's KV cache and removes it from the run queues and prefill
    /// tracking. The waitqueue is each caller's business: preemption re-queues the
    /// request there, while retirement and eviction drop it.
    fn release_execution_state(&mut self, id: u64) {
        let _ = self.kv.free_sequence(id);
        for device in [Device::Gpu, Device::Cpu, Device::Disk] {
            self.leave_run_queue(device, id);
        }
        self.prefill_device.remove(id);
    }

    /// Discards a live request's KV and re-queues it for recomputation: the decision's
    /// preemptions and the progress rule's alike.
    fn preempt(&mut self, id: u64) {
        let Some(request) = self.requests.get_mut(id) else { return };
        request.preempt();
        self.release_execution_state(id);
        if !self.waiting.contains(&id) {
            self.waiting.push(id);
        }
    }

    /// Clears the progress rule's reservation if `id` owns it.
    fn lift_reservation(&mut self, id: u64) {
        if self.reserved.is_some_and(|(owner, _)| owner == id) {
            self.reserved = None;
        }
    }

    /// Number of live (not yet finished) requests.
    pub fn live_requests(&self) -> usize {
        self.requests.len()
    }

    /// Number of requests that have finished.
    pub fn completed(&self) -> usize {
        self.retired.len()
    }

    /// Requests that produced an output token in the most recent [`Engine::step`] —
    /// by completing their prefill or by decoding — in ascending id order, each once.
    /// Empty after an idle step. Right after the step, an id [`Engine::request`] no
    /// longer finds retired in it, with its full output.
    pub fn emitted(&self) -> &[u64] {
        &self.emitted
    }

    /// Total output tokens generated so far.
    pub fn total_decode_tokens(&self) -> u64 {
        self.total_decode_tokens
    }

    /// Total prompt tokens prefilled so far.
    pub fn total_prefill_tokens(&self) -> u64 {
        self.total_prefill_tokens
    }

    /// Number of iterations executed (including idle quanta).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Name of the scheduling policy driving this engine.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Exact cost model of the underlying hardware/model pair.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Read-only view of the KV cache accounting.
    pub fn kv(&self) -> &KvCacheManager {
        &self.kv
    }

    /// Static memory budget of each tensor-parallel rank. The engine's GPU KV pool is
    /// sized from the *tightest* rank's budget (see
    /// [`CostModel::gpu_kv_capacity_tokens`]), so admission and swap decisions derived
    /// from `gpu_free_tokens` respect every rank's capacity.
    pub fn rank_budgets(&self) -> Vec<neo_sim::RankBudget> {
        self.cost.rank_budgets()
    }

    /// Live per-rank occupancy of the GPU KV pool (token counts shared by all ranks,
    /// byte counts sharded `1/tp`).
    pub fn rank_occupancy(&self) -> Vec<neo_kvcache::RankOccupancy> {
        self.kv.rank_occupancy(self.cost.tp())
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cumulative prompt tokens served from the shared-prefix cache instead of being
    /// prefilled (0 unless [`EngineConfig::prefix_cache`] is on).
    pub fn prefix_hit_tokens(&self) -> usize {
        self.kv.prefix_hit_tokens()
    }

    /// Cumulative copy-on-write block splits performed for partial prefix hits.
    pub fn cow_splits(&self) -> usize {
        self.kv.cow_splits()
    }

    /// Requests currently demoted to the disk tier.
    pub fn disk_resident(&self) -> usize {
        self.disk_run.len()
    }

    /// Executes one iteration and returns its report. An iteration that moved nothing
    /// is still charged and reported as decided; the engine's progress rule then moves
    /// on its own if any request holds KV (see `Engine::enforce_progress`).
    pub fn step(&mut self) -> IterationReport {
        self.iterations += 1;
        self.emitted.clear();
        let start_time = self.clock.now();

        let decision = {
            let ctx = ScheduleContext {
                cost: &self.sched_cost,
                config: &self.config,
                requests: &self.requests,
                waiting: &self.waiting,
                gpu_run: &self.gpu_run,
                cpu_run: &self.cpu_run,
                cpu_by_context: self.cpu_order.as_slice(),
                disk_run: &self.disk_run,
                gpu_free_tokens: self.kv.free_tokens(Device::Gpu),
                cpu_free_tokens: self.kv.free_tokens(Device::Cpu),
                disk_free_tokens: self.kv.free_tokens(Device::Disk),
                gpu_capacity_tokens: self.kv.pool(Device::Gpu).capacity_tokens(),
                prefill_device: &self.prefill_device,
            };
            self.scheduler.schedule(&ctx)
        };

        if decision.is_idle() {
            self.clock.advance(IDLE_QUANTUM);
            self.enforce_progress();
            return IterationReport {
                iteration: self.iterations,
                start_time,
                duration: IDLE_QUANTUM,
                mode: ExecutionMode::GpuOnly,
                batch_size: 0,
                prefill_tokens: 0,
                decode_tokens: 0,
                cpu_offloaded: 0,
                swapped_out: 0,
                swapped_in: 0,
                demoted_disk: 0,
                promoted_disk: 0,
                idle: true,
            };
        }

        // Apply preemptions first: the victim's KV cache is discarded and it rejoins the
        // prefill waitqueue for recomputation.
        for &id in &decision.preempt {
            self.preempt(id);
        }

        // Move whole sequences between tiers, list by list: disk demotions free the CPU
        // cache room the swap-outs need, swaps free and claim GPU memory for this
        // iteration, and promotions claim the CPU room the scheduler verified was free.
        // A demoted request moves to `disk_run` (the disk tier extends the host cache)
        // and cannot decode until promoted back. The requests and tokens each list moved
        // are reported and priced.
        let moves = [
            (&decision.demote_disk, Device::Cpu, Device::Disk),
            (&decision.swap_out, Device::Gpu, Device::Cpu),
            (&decision.swap_in, Device::Cpu, Device::Gpu),
            (&decision.promote_disk, Device::Disk, Device::Cpu),
        ];
        let (mut counts, mut tokens) = ([0usize; 4], [0usize; 4]);
        for (k, (ids, from, to)) in moves.into_iter().enumerate() {
            for &id in ids {
                if self.kv.swap(id, to).is_ok() {
                    let context = self.requests[id].context_len();
                    counts[k] += 1;
                    tokens[k] += context;
                    self.leave_run_queue(from, id);
                    if !self.run_queue(to).contains(&id) {
                        self.join_run_queue(to, id, context);
                    }
                }
            }
        }
        let [demoted_disk, swapped_out, swapped_in, promoted_disk] = counts;
        let [demote_tokens, swap_out_tokens, swap_in_tokens, promote_tokens] = tokens;

        // "Execute": charge the iteration's duration from the exact cost model through
        // the paper's closed-form iteration formulas.
        let estimate = estimate_decision(
            &self.cost,
            &decision,
            swap_out_tokens,
            swap_in_tokens,
            self.config.layerwise_swap_overlap,
        );
        // NVMe traffic does not share the PCIe swap path's layer-wise overlap machinery:
        // disk demotions/promotions are charged serially on top of the iteration.
        let disk_time = self.cost.disk_write_time_total(demote_tokens)
            + self.cost.disk_read_time_total(promote_tokens);
        let end_time = self.clock.advance((estimate.total_time + disk_time).max(1e-6));

        // Prefill progress.
        let mut prefill_tokens = 0usize;
        let mut decode_tokens = 0usize;
        for item in &decision.batch0.prefills {
            // Hold back other requests' chunks whose KV is, or would be, on the pool
            // the progress rule reserved.
            if self.reserved.is_some_and(|(owner, pool)| {
                owner != item.req && self.kv.device_of(item.req).unwrap_or(item.target) == pool
            }) {
                continue;
            }
            let allocated = if self.requests[item.req].prefilled == 0 {
                let _ = self.prefill_device.insert(item.req, item.target);
                self.kv.allocate_sequence(item.req, item.new_tokens, item.target).is_ok()
            } else {
                self.kv.append_tokens(item.req, item.new_tokens).is_ok()
            };
            if !allocated {
                continue; // cache full at block granularity; retried next iteration
            }
            self.lift_reservation(item.req);
            prefill_tokens += item.new_tokens;
            let Some(request) = self.requests.get_mut(item.req) else { continue };
            request.advance_prefill(item.new_tokens);
            if request.prefill_complete() {
                // The prefill iteration also emits the first output token.
                request.advance_decode();
                decode_tokens += 1;
                self.emitted.push(item.req);
                let finished = request.is_finished();
                // Register the finished prompt's blocks in the prefix cache *before*
                // possibly retiring the request, so even one-token answers leave their
                // prompt behind for later requests to adopt.
                if self.config.prefix_cache
                    && item.target == Device::Gpu
                    && !request.prompt_runs.is_empty()
                {
                    let _ = self.kv.insert_prefix(item.req, &request.prompt_runs);
                }
                let context = request.context_len();
                self.waiting.retain(|&w| w != item.req);
                self.prefill_device.remove(item.req);
                if finished {
                    self.retire(item.req);
                } else {
                    self.join_run_queue(item.target, item.req, context);
                }
            }
        }

        // Decode progress (both sub-batches, GPU and CPU attention alike).
        let cpu_offloaded = decision.batch0.cpu_decodes.len() + decision.batch1.cpu_decodes.len();
        let decodes = [
            &decision.batch0.gpu_decodes,
            &decision.batch0.cpu_decodes,
            &decision.batch1.gpu_decodes,
            &decision.batch1.cpu_decodes,
        ];
        for &(id, _) in decodes.into_iter().flatten() {
            let Some(request) = self.requests.get(id) else { continue };
            if !request.prefill_complete() || request.is_finished() {
                continue;
            }
            if self.kv.append_tokens(id, 1).is_err() {
                continue; // no block available; the request idles this iteration
            }
            self.lift_reservation(id);
            let Some(request) = self.requests.get_mut(id) else { continue };
            let context = request.context_len();
            request.advance_decode();
            let finished = request.is_finished();
            self.cpu_order.advance(id, context);
            decode_tokens += 1;
            self.emitted.push(id);
            if finished {
                self.retire(id);
            }
        }
        debug_assert_eq!(self.cpu_order.as_slice().len(), self.cpu_run.len());

        let progressed = prefill_tokens > 0
            || decode_tokens > 0
            || swapped_out > 0
            || swapped_in > 0
            || demoted_disk > 0
            || promoted_disk > 0
            || !decision.preempt.is_empty();
        if !progressed {
            self.enforce_progress();
        }

        self.total_prefill_tokens += prefill_tokens as u64;
        self.total_decode_tokens += decode_tokens as u64;
        self.emitted.sort_unstable();
        self.emitted.dedup();

        IterationReport {
            iteration: self.iterations,
            start_time,
            duration: end_time - start_time,
            mode: decision.mode,
            batch_size: decision.batch_size(),
            prefill_tokens,
            decode_tokens,
            cpu_offloaded,
            swapped_out,
            swapped_in,
            demoted_disk,
            promoted_disk,
            idle: false,
        }
    }

    /// The progress rule, run after an iteration that moved nothing (no token, swap,
    /// tier move or preemption): policies are deterministic in the engine's state, so
    /// such an iteration would repeat forever. The *owner* is the oldest KV holder by
    /// `(arrival_time, id)` — holding is the KV manager's fact, not a request's
    /// counters — and its pool the device its KV is on (the CPU for a disk resident).
    /// The newest other holder on that pool is preempted, or the owner itself when it
    /// is alone there, and the pool is reserved for the owner: `step` skips other
    /// requests' prefill chunks bound for it. With no holder, a reservation lapses.
    fn enforce_progress(&mut self) {
        let by_age = |a: &&Request, b: &&Request| {
            a.arrival_time.total_cmp(&b.arrival_time).then(a.id.cmp(&b.id))
        };
        let kv = &self.kv;
        let holders = || self.requests.values().filter(|r| kv.device_of(r.id).is_ok());
        let Some(owner) = holders().min_by(by_age).map(|r| r.id) else {
            self.reserved = None;
            return;
        };
        let pool = match kv.device_of(owner) {
            Ok(Device::Gpu) => Device::Gpu,
            _ => Device::Cpu,
        };
        let victim = holders()
            .filter(|r| r.id != owner && kv.device_of(r.id) == Ok(pool))
            .max_by(by_age)
            .map_or(owner, |r| r.id);
        self.preempt(victim);
        self.reserved = Some((owner, pool));
    }

    /// The run queue of the requests whose KV is on `device`.
    fn run_queue(&mut self, device: Device) -> &mut Vec<u64> {
        match device {
            Device::Gpu => &mut self.gpu_run,
            Device::Cpu => &mut self.cpu_run,
            Device::Disk => &mut self.disk_run,
        }
    }

    /// Appends `id`, of context `context`, to the run queue of `device`.
    fn join_run_queue(&mut self, device: Device, id: u64, context: usize) {
        self.run_queue(device).push(id);
        if device == Device::Cpu {
            self.cpu_order.insert(id, context);
        }
    }

    /// Removes `id` from the run queue of `device`.
    fn leave_run_queue(&mut self, device: Device, id: u64) {
        self.run_queue(device).retain(|&x| x != id);
        if device == Device::Cpu {
            self.cpu_order.remove(id);
        }
    }

    /// Removes a finished request from every queue, frees its KV cache and counts it.
    /// Both callers have taken it out of the waitqueue: a decoding request is never in
    /// it, and a completed prefill leaves it.
    fn retire(&mut self, id: u64) {
        debug_assert!(!self.waiting.contains(&id), "retiring {id} while it waits");
        self.release_execution_state(id);
        self.lift_reservation(id);
        if self.requests.remove(id).is_some() {
            self.retired.insert(id);
        }
    }

    /// Runs iterations until every submitted request has finished or `max_iterations` is
    /// reached, returning the number of iterations executed.
    pub fn run_to_completion(&mut self, max_iterations: u64) -> u64 {
        let mut n = 0;
        while !self.is_idle() && n < max_iterations {
            self.step();
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ScheduleDecision;
    use crate::policy::{IterationPlan, SchedulerPolicy};
    use crate::scheduler::NeoScheduler;
    use neo_sim::{ModelDesc, Testbed};

    fn engine(testbed: Testbed, model: ModelDesc) -> Engine {
        let tp = if testbed.num_gpus > 1 { 2 } else { 1 };
        let cost = CostModel::new(model, testbed, tp);
        Engine::new(cost, EngineConfig::default(), Box::new(NeoScheduler::new()))
    }

    fn a10g_engine() -> Engine {
        engine(Testbed::g5_xlarge(4), ModelDesc::llama3_8b())
    }

    #[test]
    fn single_request_completes_with_correct_counts() {
        let mut e = a10g_engine();
        e.submit(Request::new(1, 0.0, 100, 20)).unwrap();
        let iters = e.run_to_completion(10_000);
        assert!(iters < 10_000, "request did not finish");
        assert_eq!(e.completed(), 1);
        assert!(e.now() > 0.0);
        // KV fully released.
        assert_eq!(e.kv().num_sequences(), 0);
        assert_eq!(e.total_decode_tokens(), 20);
        assert_eq!(e.total_prefill_tokens(), 100);
    }

    #[test]
    fn many_requests_all_complete_and_conserve_tokens() {
        let mut e = a10g_engine();
        let n = 40;
        let (mut expected_prefill, mut expected_decode) = (0u64, 0u64);
        for id in 0..n {
            let (prompt, output) = (200 + (id as usize % 7) * 50, 16 + (id as usize % 5));
            e.submit(Request::new(id, 0.0, prompt, output)).unwrap();
            expected_prefill += prompt as u64;
            expected_decode += output as u64;
        }
        e.run_to_completion(200_000);
        assert_eq!(e.completed(), n as usize);
        assert_eq!(e.total_decode_tokens(), expected_decode);
        assert_eq!(e.total_prefill_tokens(), expected_prefill);
        assert_eq!(e.kv().num_sequences(), 0);
        assert_eq!(e.live_requests(), 0);
    }

    #[test]
    fn time_advances_monotonically_across_steps() {
        let mut e = a10g_engine();
        for id in 0..5 {
            e.submit(Request::new(id, 0.0, 300, 10)).unwrap();
        }
        let mut last = 0.0;
        while !e.is_idle() {
            let report = e.step();
            assert!(report.duration > 0.0);
            assert!(e.now() > last);
            last = e.now();
        }
    }

    #[test]
    fn idle_engine_charges_idle_quantum() {
        let mut e = a10g_engine();
        let before = e.now();
        let report = e.step();
        assert!(report.idle);
        assert!((e.now() - before - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn memory_constrained_t4_offloads_to_cpu() {
        // The T4 + LLaMa-2-7B setting from the paper: almost no GPU KV room, so a bursty
        // batch must spill to the CPU cache.
        let mut e = engine(Testbed::g4dn_4xlarge(), ModelDesc::llama2_7b());
        for id in 0..64 {
            e.submit(Request::new(id, 0.0, 300, 40)).unwrap();
        }
        let mut used_cpu = false;
        let mut finished_iterations = 0;
        while !e.is_idle() && finished_iterations < 100_000 {
            let report = e.step();
            if report.cpu_offloaded > 0 || report.swapped_out > 0 {
                used_cpu = true;
            }
            finished_iterations += 1;
        }
        assert_eq!(e.completed(), 64);
        assert!(used_cpu, "memory pressure on the T4 must trigger CPU offloading");
    }

    #[test]
    fn duplicate_submission_is_refused_typed() {
        let mut e = a10g_engine();
        e.submit(Request::new(1, 0.0, 10, 5)).unwrap();
        assert_eq!(e.submit(Request::new(1, 0.0, 20, 5)), Err(AdmitError::DuplicateId(1)));
        assert_eq!(e.request(1).unwrap().prompt_len, 10, "the live request is untouched");
        assert_eq!((e.live_requests(), e.waiting.clone()), (1, vec![1]));
    }

    #[test]
    fn resubmitting_a_completed_id_is_refused_typed() {
        let mut e = a10g_engine();
        e.submit(Request::new(1, 0.0, 10, 5)).unwrap();
        e.run_to_completion(10_000);
        assert_eq!(e.completed(), 1);
        assert_eq!(e.submit(Request::new(1, e.now(), 10, 5)), Err(AdmitError::DuplicateId(1)));
        assert!(e.is_idle());
    }

    #[test]
    fn an_id_past_the_request_window_is_refused_typed() {
        let mut e = a10g_engine();
        let (old, far) = (7, 7 + neo_kvcache::MAX_ID_WINDOW);
        e.submit(Request::new(far, 0.0, 100, 5)).unwrap();
        let below = AdmitError::IdOutOfWindow { id: old, oldest: far, newest: far };
        assert_eq!(e.submit(Request::new(old, 0.0, 100, 5)), Err(below));
        e.run_to_completion(10_000);
        e.submit(Request::new(old, e.now(), 100, 50)).unwrap();
        let above = AdmitError::IdOutOfWindow { id: far + 1, oldest: old, newest: old };
        let before = (e.requests.span(), e.waiting.clone(), e.kv().num_sequences());
        assert_eq!(e.submit(Request::new(far + 1, e.now(), 100, 5)), Err(above));
        assert_eq!((e.requests.span(), e.waiting.clone(), e.kv().num_sequences()), before);
        // Once the old request finishes, the window rebases on the next id.
        e.run_to_completion(10_000);
        e.submit(Request::new(far + 1, e.now(), 100, 5)).unwrap();
        e.run_to_completion(10_000);
        assert_eq!(e.completed(), 3);
    }

    #[test]
    fn advance_to_jumps_the_clock() {
        let mut e = a10g_engine();
        e.advance_to(5.0);
        assert_eq!(e.now(), 5.0);
        e.submit(Request::new(1, 5.0, 50, 4)).unwrap();
        e.run_to_completion(10_000);
        assert_eq!(e.completed(), 1);
        assert_eq!(e.total_decode_tokens(), 4);
        assert!(e.now() > 5.0, "the request ran after the jump");
    }

    #[test]
    fn per_token_latency_reasonable_on_a10g() {
        // Sanity band: a lightly loaded A10G serving LLaMa-3.1-8B should produce tokens at
        // tens of milliseconds each, not microseconds or minutes.
        // A lone request arriving at zero finishes when the clock stops.
        let mut e = a10g_engine();
        e.submit(Request::new(1, 0.0, 500, 50)).unwrap();
        e.run_to_completion(10_000);
        assert_eq!(e.total_decode_tokens(), 50);
        let ptl = e.now() / 50.0;
        assert!(ptl > 1e-3 && ptl < 1.0, "per-token latency {ptl}");
    }

    #[test]
    fn evicting_a_decoding_request_frees_its_kv_blocks() {
        let mut e = a10g_engine();
        e.submit(Request::new(1, 0.0, 100, 400)).unwrap();
        e.submit(Request::new(2, 0.0, 100, 400)).unwrap();
        // Step until both requests hold KV and are decoding.
        while e.kv().num_sequences() < 2 {
            e.step();
        }
        let gpu_free_before = e.kv().free_tokens(Device::Gpu);
        let evicted = e.evict(1).expect("request 1 is live");
        assert!(evicted.generated < evicted.output_len, "evicted mid-decode");
        assert_eq!(e.kv().num_sequences(), 1, "the cancelled KV must be freed immediately");
        assert!(e.kv().free_tokens(Device::Gpu) > gpu_free_before);
        assert!(e.request(1).is_none());
        assert_eq!(e.live_requests(), 1);
        // The eviction never counts as completed, and the survivor still finishes.
        e.run_to_completion(100_000);
        assert_eq!(e.completed(), 1);
        assert!(e.request(2).is_none());
        assert_eq!(e.kv().num_sequences(), 0);
    }

    #[test]
    fn evicting_unknown_or_finished_requests_returns_none() {
        let mut e = a10g_engine();
        e.submit(Request::new(7, 0.0, 50, 4)).unwrap();
        e.run_to_completion(10_000);
        assert_eq!(e.completed(), 1);
        assert!(e.evict(7).is_none(), "finished requests are not evictable");
        assert!(e.evict(99).is_none());
    }

    #[test]
    fn evicting_a_waiting_request_works_before_prefill() {
        let mut e = a10g_engine();
        e.submit(Request::new(3, 0.0, 100, 10)).unwrap();
        let evicted = e.evict(3).expect("waiting request is live");
        assert_eq!(evicted.prefilled, 0);
        assert!(e.is_idle());
        assert_eq!(e.kv().num_sequences(), 0);
    }

    #[test]
    fn admission_backpressure_reflects_the_waitqueue() {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let config = EngineConfig { max_waiting_requests: 2, ..EngineConfig::default() };
        let mut e = Engine::new(cost, config, Box::new(NeoScheduler::new()));
        assert!(e.can_admit());
        e.submit(Request::new(1, 0.0, 50, 4)).unwrap();
        assert!(e.can_admit());
        e.submit(Request::new(2, 0.0, 50, 4)).unwrap();
        assert!(!e.can_admit(), "waitqueue at max_waiting_requests means backpressure");
        // Prefilling drains the waitqueue and lifts the backpressure.
        while !e.can_admit() {
            e.step();
        }
        e.run_to_completion(10_000);
        assert_eq!(e.completed(), 2);
    }

    #[test]
    fn rank_views_track_the_tp_group() {
        let mut e = engine(Testbed::hgx_h100(2), ModelDesc::llama3_70b());
        let budgets = e.rank_budgets();
        assert_eq!(budgets.len(), 2);
        // The GPU pool was sized from the tightest rank.
        assert_eq!(
            e.kv().config().gpu_capacity_tokens,
            budgets.iter().map(|b| b.kv_capacity_tokens).min().unwrap()
        );
        e.submit(Request::new(1, 0.0, 200, 10)).unwrap();
        e.step();
        let ranks = e.rank_occupancy();
        assert_eq!(ranks.len(), 2);
        assert!(ranks[0].used_tokens > 0, "prefill must occupy KV");
        assert_eq!(ranks[0].used_bytes, ranks[1].used_bytes);
        // Each of the two ranks holds half of the group's KV bytes.
        assert_eq!(
            ranks[0].used_bytes,
            ranks[0].used_tokens as u64 * e.cost_model().kv_bytes_per_token() as u64 / 2
        );
    }

    /// Emissions seen by [`run_checking_emitters`], by kind.
    #[derive(Default)]
    struct Emissions {
        firsts: usize,
        decodes: usize,
        recomputes: usize,
        retirements: usize,
    }

    /// Runs `e` until idle, checking after every step that `emitted()` lists exactly
    /// the ids whose output grew.
    fn run_checking_emitters(e: &mut Engine) -> Emissions {
        let mut seen = Emissions::default();
        while !e.is_idle() {
            let before: Vec<(u64, usize, bool)> =
                e.requests.iter().map(|(id, r)| (id, r.generated, r.prefill_complete())).collect();
            e.step();
            // A request that left the engine during the step retired, so it grew too.
            let grew: Vec<&(u64, usize, bool)> = before
                .iter()
                .filter(|&&(id, generated, _)| {
                    e.request(id).map_or(true, |r| r.generated > generated)
                })
                .collect();
            let ids: Vec<u64> = grew.iter().map(|&&(id, ..)| id).collect();
            assert_eq!(e.emitted(), &ids[..], "iteration {}", e.iterations());
            for &&(id, generated, prefill_done) in &grew {
                match (e.request(id), generated, prefill_done) {
                    (None, ..) => seen.retirements += 1,
                    (Some(_), 0, _) => seen.firsts += 1,
                    (Some(_), _, false) => seen.recomputes += 1,
                    (Some(_), _, true) => seen.decodes += 1,
                }
            }
        }
        seen
    }

    #[test]
    fn emitted_lists_exactly_the_requests_whose_output_grew() {
        let mut e = a10g_engine();
        e.submit(Request::new(1, 0.0, 100, 1)).unwrap();
        e.submit(Request::new(2, 0.0, 1_200, 4)).unwrap();
        e.submit(Request::new(3, 0.0, 50, 3)).unwrap();
        let seen = run_checking_emitters(&mut e);
        assert_eq!(seen.retirements, 3, "every request retires exactly once");
        assert!(seen.firsts >= 2, "requests 2 and 3 stream a first token at prefill completion");
        assert!(seen.decodes >= 2, "and then decode");
        assert!(e.step().idle);
        assert!(e.emitted().is_empty(), "an idle step empties the list");

        // The progress rule preempts a sequence that already streamed tokens; its
        // re-prefill must name it as an emitter like any prefill does.
        let mut testbed = Testbed::g4dn_4xlarge();
        testbed.cpu_cache_fraction = 0.0005;
        let cost = CostModel::new(ModelDesc::llama2_7b(), testbed, 1);
        let mut e = Engine::new(cost, EngineConfig::default(), Box::new(CpuGreedyPolicy));
        e.submit(Request::new(0, 0.0, 31, 30)).unwrap();
        e.submit(Request::new(1, 0.0, 31, 30)).unwrap();
        let seen = run_checking_emitters(&mut e);
        assert!(seen.recomputes >= 1, "the rule's victim recomputes after streaming");
        assert_eq!(seen.retirements, 2);
    }

    #[test]
    fn debug_format_mentions_scheduler() {
        let e = a10g_engine();
        let s = format!("{e:?}");
        assert!(s.contains("neo"));
    }

    #[test]
    fn never_admissible_request_is_rejected_typed() {
        let t4 = || engine(Testbed::g4dn_4xlarge(), ModelDesc::llama2_7b());
        for (mut e, gpu_only) in [(a10g_engine(), false), (t4(), false), (gpu_only_t4(), true)] {
            let capacity = e.max_context_capacity();
            assert_eq!(capacity % BLOCK_SIZE, 0, "the bound counts whole blocks");
            let gpu_pool = e.kv().pool(Device::Gpu).capacity_tokens();
            assert_eq!(
                capacity == gpu_pool,
                gpu_only,
                "only a GPU-only policy is bound by the GPU"
            );
            let err = e.submit(Request::new(1, 0.0, capacity + 1, 1)).unwrap_err();
            assert_eq!(
                err,
                AdmitError::NeverAdmissible {
                    required_tokens: capacity + 2,
                    capacity_tokens: capacity,
                }
            );
            assert!(e.is_idle(), "a rejected request must not enter the waitqueue");
            // A request that exactly fills the largest pool is admissible, and finishes.
            e.submit(Request::new(2, 0.0, capacity - 4, 4)).unwrap();
            let iters = e.run_to_completion(100_000);
            assert!(iters < 100_000, "an exact-fit request must not livelock");
            assert_eq!(e.completed(), 1);
        }
    }

    #[test]
    fn fail_evicts_everything_and_recover_restores_service() {
        let mut e = a10g_engine();
        e.submit(Request::new(1, 0.0, 200, 40)).unwrap();
        e.submit(Request::new(2, 0.0, 200, 40)).unwrap();
        for _ in 0..3 {
            e.step();
        }
        assert!(!e.is_down());
        let lost = e.fail();
        assert!(e.is_down());
        assert_eq!(lost.len(), 2, "both live requests are evicted on fail-stop");
        assert!(lost.windows(2).all(|w| w[0].id < w[1].id), "eviction order is id-sorted");
        assert_eq!(e.kv().num_sequences(), 0, "KV is lost on fail-stop");
        assert_eq!(e.live_requests(), 0);
        assert!(!e.can_admit());
        assert_eq!(e.submit(Request::new(3, 0.0, 50, 4)), Err(AdmitError::EngineDown));
        // A down engine still advances time idly but does no work.
        let report = e.step();
        assert!(report.idle);
        e.recover();
        assert!(!e.is_down());
        e.submit(Request::new(3, 0.0, 50, 4)).unwrap();
        e.run_to_completion(10_000);
        assert_eq!(e.completed(), 1);
    }

    #[test]
    fn shared_prefix_is_adopted_instead_of_reprefilled() {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let config = EngineConfig { prefix_cache: true, ..EngineConfig::default() };
        let mut e = Engine::new(cost, config, Box::new(NeoScheduler::new()));
        let shared = TokenRun { id: 1, len: 512 };
        let r1 = Request::with_runs(1, 0.0, 600, 8, vec![shared, TokenRun { id: 101, len: 88 }]);
        e.submit(r1).unwrap();
        e.run_to_completion(10_000);
        assert_eq!(e.prefix_hit_tokens(), 0, "first request has nothing to adopt");
        // The second request shares the 512-token head; all 32 of its full blocks are
        // adopted from the cache, so only the remainder is prefilled.
        let r2 = Request::with_runs(2, 0.0, 600, 8, vec![shared, TokenRun { id: 102, len: 88 }]);
        e.submit(r2).unwrap();
        assert_eq!(e.prefix_hit_tokens(), 512);
        assert_eq!(e.request(2).unwrap().prefilled, 512);
        let prefill_before = e.total_prefill_tokens();
        e.run_to_completion(10_000);
        assert_eq!(e.completed(), 2);
        assert_eq!(
            e.total_prefill_tokens() - prefill_before,
            88,
            "only the uncached tail is prefilled"
        );
        assert_eq!(e.total_decode_tokens(), 16);
        assert_eq!(e.kv().num_sequences(), 0, "prefix blocks live in the index, not in seqs");
    }

    #[test]
    fn partial_prefix_hits_split_copy_on_write() {
        let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
        let config = EngineConfig { prefix_cache: true, ..EngineConfig::default() };
        let mut e = Engine::new(cost, config, Box::new(NeoScheduler::new()));
        // 100 = 6 full blocks + a 4-token partial tail at block size 16.
        let shared = TokenRun { id: 5, len: 100 };
        e.submit(Request::with_runs(1, 0.0, 150, 4, vec![shared, TokenRun { id: 201, len: 50 }]))
            .unwrap();
        e.run_to_completion(10_000);
        e.submit(Request::with_runs(2, 0.0, 150, 4, vec![shared, TokenRun { id: 202, len: 50 }]))
            .unwrap();
        // 96 full-block tokens shared plus the 4-token tail copied into a private block.
        assert_eq!(e.prefix_hit_tokens(), 100);
        assert_eq!(e.cow_splits(), 1);
        e.run_to_completion(10_000);
        assert_eq!(e.completed(), 2);
    }

    #[test]
    fn an_empty_interior_run_adopts_and_inserts_as_without_it() {
        // The empty run sits mid-block, between a 100-token shared head and each
        // request's own tail; it adds no tokens, so it must change nothing.
        let run = |gap: &[TokenRun]| {
            let cost = CostModel::new(ModelDesc::llama3_8b(), Testbed::g5_xlarge(4), 1);
            let config = EngineConfig { prefix_cache: true, ..EngineConfig::default() };
            let mut e = Engine::new(cost, config, Box::new(NeoScheduler::new()));
            let prompt = |tail: u64| {
                [&[TokenRun { id: 5, len: 100 }], gap, &[TokenRun { id: tail, len: 50 }]].concat()
            };
            let mut reports = Vec::new();
            // Request 3 repeats request 1's prompt, so it adopts what request 1 inserted
            // past the empty run.
            for (id, tail) in [(1, 201), (2, 202), (3, 201)] {
                e.submit(Request::with_runs(id, 0.0, 150, 4, prompt(tail))).unwrap();
                while !e.is_idle() {
                    reports.push(e.step());
                }
            }
            assert_eq!(e.completed(), 3);
            (e.prefix_hit_tokens(), e.cow_splits(), e.kv().prefix_blocks(), reports)
        };
        let plain = run(&[]);
        assert_eq!((plain.0, plain.1), (100 + 149, 2), "a shared head and a full repeat");
        assert_eq!(run(&[TokenRun { id: 9, len: 0 }]), plain);
        assert_eq!(run(&[TokenRun { id: 5, len: 0 }]), plain);
    }

    #[test]
    fn prefix_cache_with_unique_prompts_matches_disabled_run_exactly() {
        // Zero sharing: every iteration report must be identical with the cache on and
        // off — the pay-for-what-you-use property the results regeneration relies on.
        let run = |prefix_cache: bool| -> Vec<IterationReport> {
            let cost = CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1);
            let config = EngineConfig { prefix_cache, ..EngineConfig::default() };
            let mut e = Engine::new(cost, config, Box::new(NeoScheduler::new()));
            for id in 0..48 {
                e.submit(Request::new(id, 0.0, 200 + (id as usize % 9) * 40, 12)).unwrap();
            }
            let mut reports = Vec::new();
            while !e.is_idle() && reports.len() < 100_000 {
                reports.push(e.step());
            }
            assert_eq!(e.completed(), 48);
            reports
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off, on, "share-free trace must be bit-identical under the cache");
    }

    #[test]
    fn disk_tier_absorbs_cpu_cache_overflow() {
        // Shrink the host cache so the T4 burst overflows it; with the disk tier on the
        // overflow demotes instead of preempting, and everything still finishes.
        let mut testbed = Testbed::g4dn_4xlarge();
        testbed.cpu_cache_fraction = 0.012;
        let cost = CostModel::new(ModelDesc::llama2_7b(), testbed, 1);
        let config = EngineConfig { disk_tier: true, ..EngineConfig::default() };
        let mut e = Engine::new(cost, config, Box::new(NeoScheduler::new()));
        assert!(e.kv().pool(Device::Disk).capacity_tokens() > 0);
        for id in 0..48 {
            e.submit(Request::new(id, 0.0, 400, 48)).unwrap();
        }
        let mut demoted = 0usize;
        let mut promoted = 0usize;
        let mut iters = 0usize;
        while !e.is_idle() && iters < 200_000 {
            let r = e.step();
            demoted += r.demoted_disk;
            promoted += r.promoted_disk;
            iters += 1;
        }
        assert_eq!(e.completed(), 48);
        assert!(demoted > 0, "the overflow must reach the disk tier");
        assert!(promoted > 0, "demoted requests must come back to finish decoding");
        assert_eq!(e.disk_resident(), 0);
        assert_eq!(e.kv().num_sequences(), 0);
    }

    /// Deliberately wedge-prone scripted policy for the CPU-exact-fit regression test:
    /// prefills every waiting request straight into the CPU cache and decodes every
    /// CPU-resident request, with no free-room reservation and no preemption. Any
    /// single-file policy PR could ship a scheduler like this, so the *engine* must
    /// survive it.
    struct CpuGreedyPolicy;

    impl Scheduler for CpuGreedyPolicy {
        fn schedule(&mut self, ctx: &ScheduleContext<'_>) -> ScheduleDecision {
            let mut d = ScheduleDecision::idle();
            for &id in ctx.waiting {
                let new_tokens = ctx.remaining_prefill(id);
                if new_tokens == 0 {
                    continue;
                }
                d.batch0.prefills.push(crate::batch::PrefillItem {
                    req: id,
                    new_tokens,
                    ctx_after: ctx.context_len(id) + new_tokens,
                    target: Device::Cpu,
                });
            }
            for &id in ctx.cpu_run {
                d.batch1.cpu_decodes.push((id, ctx.context_len(id)));
            }
            if !d.batch1.is_empty() {
                d.mode = ExecutionMode::Asymmetric;
            }
            d
        }

        fn name(&self) -> &'static str {
            "cpu-greedy"
        }
    }

    #[test]
    fn cpu_exact_fit_append_wedge_recovers_without_disk_tier() {
        // Regression test for the CPU-exact-fit decode wedge (ROADMAP, carried from
        // PR 9): with the disk tier OFF, a CPU-resident context that lands exactly on
        // a block boundary with zero free host blocks cannot append, and a scheduler
        // without its own free-room reservation never frees host room — the engine
        // used to livelock. At cpu_cache_fraction=0.0005 the T4 host pool holds 4
        // blocks; two 31-token prompts fill all of them after prefill, and both hit
        // the failing append at context 33. The progress rule in `Engine::step` must
        // preempt one sequence *and* reserve the freed blocks for the oldest holder,
        // so the survivor — not the victim's re-prefill — takes them.
        let mut testbed = Testbed::g4dn_4xlarge();
        testbed.cpu_cache_fraction = 0.0005;
        let cost = CostModel::new(ModelDesc::llama2_7b(), testbed, 1);
        assert_eq!(
            cost.cpu_kv_capacity_tokens() / BLOCK_SIZE,
            4,
            "fixture needs an exactly-fillable 4-block host pool"
        );
        let mut e = Engine::new(cost, EngineConfig::default(), Box::new(CpuGreedyPolicy));
        assert_eq!(e.kv().pool(Device::Disk).capacity_tokens(), 0, "disk tier must be off");
        e.submit(Request::new(0, 0.0, 31, 30)).unwrap();
        e.submit(Request::new(1, 0.0, 31, 30)).unwrap();
        let iters = e.run_to_completion(10_000);
        assert!(iters < 10_000, "engine wedged: {} of 2 finished", e.completed());
        assert_eq!(e.completed(), 2);
        assert_eq!(e.total_decode_tokens(), 60);
        assert_eq!(e.kv().num_sequences(), 0);
    }

    /// A GPU-only policy like the vLLM baseline: it decodes every GPU resident, admits
    /// prefill chunks while the GPU pool has room, and keeps no KV in the host cache.
    struct GpuOnlyPolicy;

    impl SchedulerPolicy for GpuOnlyPolicy {
        fn policy_name(&self) -> &'static str {
            "gpu-only"
        }

        fn form_batches(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
            for &id in ctx.gpu_run {
                plan.batch0.gpu_decodes.push((id, ctx.context_len(id)));
                plan.gpu_free -= 1;
            }
        }

        fn admit(&mut self, ctx: &ScheduleContext<'_>, plan: &mut IterationPlan) {
            plan.admit_prefills(ctx, ctx.config.prefill_chunk, |plan, _, chunk| {
                (plan.gpu_free >= chunk as i64).then_some(Device::Gpu)
            });
        }

        fn kv_pools(&self) -> &'static [Device] {
            &[Device::Gpu]
        }
    }

    fn gpu_only_t4() -> Engine {
        let cost = CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1);
        Engine::new(cost, EngineConfig::default(), Box::new(GpuOnlyPolicy))
    }

    /// A livelocked policy: it stays idle whatever waits.
    struct IdlePolicy;

    impl Scheduler for IdlePolicy {
        fn schedule(&mut self, _ctx: &ScheduleContext<'_>) -> ScheduleDecision {
            ScheduleDecision::idle()
        }

        fn name(&self) -> &'static str {
            "idle"
        }
    }

    /// An idle-policy engine on the T4 holding `requests`, each `(id, prefilled, generated,
    /// device)` with `prefilled + generated` tokens of KV on `device` (none for `None`),
    /// all in the waitqueue as partial prefills or preempted requests.
    fn stalled_t4(requests: &[(u64, usize, usize, Option<Device>)]) -> Engine {
        let cost = CostModel::new(ModelDesc::llama2_7b(), Testbed::g4dn_4xlarge(), 1);
        let mut e = Engine::new(cost, EngineConfig::default(), Box::new(IdlePolicy));
        for &(id, prefilled, generated, device) in requests {
            e.submit(Request::new(id, 0.0, 1_000, 64)).unwrap();
            let request = e.requests.get_mut(id).unwrap();
            request.advance_prefill(prefilled);
            request.generated = generated;
            if let Some(device) = device {
                e.kv.allocate_sequence(id, prefilled + generated, device).unwrap();
                e.prefill_device.insert(id, device).unwrap();
            }
        }
        e
    }

    #[test]
    fn prefill_deadlock_is_broken_by_preempting_the_newest_partial() {
        // Three 1,200-token prompts prefill in 512-token chunks on the T4's 3,120-token
        // GPU pool until all three are pinned there with 48 tokens free: the GPU-only
        // policy can admit nothing and idles. The engine preempts the newest holder
        // (3) and reserves its blocks for the oldest (1), instead of idling forever.
        let mut e = gpu_only_t4();
        for id in 1..=3 {
            e.submit(Request::new(id, 0.0, 1_200, 8)).unwrap();
        }
        e.step();
        e.step();
        let report = e.step();
        assert!(report.idle, "the policy finds nothing to run");
        assert_eq!(report.duration, IDLE_QUANTUM, "the stall is charged one idle quantum");
        assert_eq!(e.request(1).unwrap().prefilled, 1_024);
        assert_eq!(e.request(2).unwrap().prefilled, 1_024);
        assert_eq!(e.request(3).unwrap().prefilled, 0, "the newest partial restarts");
        assert!(e.kv().device_of(3).is_err(), "and its KV is freed");
        assert_eq!(e.reserved, Some((1, Device::Gpu)));
        let report = e.step();
        assert!(report.prefill_tokens > 0);
        assert_eq!(e.reserved, None, "the owner's chunk landed");
        e.run_to_completion(10_000);
        assert_eq!(e.completed(), 3);
    }

    #[test]
    fn idle_without_held_kv_stays_idle() {
        // A waitqueue whose requests hold no KV is not a deadlock the engine can break:
        // nothing is preempted, and a reservation left over lapses.
        let mut e = stalled_t4(&[(1, 0, 0, None), (2, 0, 5, None)]);
        e.reserved = Some((1, Device::Gpu));
        assert!(e.step().idle);
        assert_eq!(e.request(2).unwrap().generated, 5);
        assert_eq!(e.waiting, vec![1, 2]);
        assert_eq!(e.reserved, None);
    }

    #[test]
    fn a_request_that_streamed_but_holds_no_kv_is_never_the_victim() {
        // Request 3 was preempted after streaming five tokens: its context_len() is 5,
        // yet it holds no KV. The victim is the newest holder, 2; preempting 3 would
        // free nothing, forever.
        let mut e = stalled_t4(&[
            (1, 300, 0, Some(Device::Gpu)),
            (2, 200, 0, Some(Device::Gpu)),
            (3, 0, 5, None),
        ]);
        assert!(e.step().idle);
        assert!(e.kv().device_of(2).is_err(), "the newest holder is preempted");
        assert_eq!(e.request(2).unwrap().prefilled, 0);
        assert_eq!(e.kv().device_of(1), Ok(Device::Gpu), "the owner keeps its KV");
        assert_eq!(e.request(3).unwrap().generated, 5);
        assert_eq!(e.reserved, Some((1, Device::Gpu)));
    }

    #[test]
    fn the_owner_alone_on_its_pool_restarts_itself() {
        // The oldest holder, 1, is alone on the GPU; the CPU holder 2 frees nothing
        // there. With no other victim on its pool, the owner restarts from the
        // waitqueue, and the GPU stays reserved for it.
        let mut e = stalled_t4(&[(1, 300, 0, Some(Device::Gpu)), (2, 200, 0, Some(Device::Cpu))]);
        assert!(e.step().idle);
        assert!(e.kv().device_of(1).is_err(), "the owner is its own victim");
        assert_eq!(e.request(1).unwrap().prefilled, 0);
        assert_eq!(e.kv().device_of(2), Ok(Device::Cpu), "the other pool is untouched");
        assert_eq!(e.reserved, Some((1, Device::Gpu)));
    }

    #[test]
    fn the_freed_blocks_go_to_the_owner() {
        // Two 31-token prompts fill the T4's 4-block host pool and decode until both
        // need a third block. The rule preempts 1 and reserves the CPU pool for 0: the
        // next step holds 1's re-prefill back, so 0's append takes the freed blocks.
        let mut testbed = Testbed::g4dn_4xlarge();
        testbed.cpu_cache_fraction = 0.0005;
        let cost = CostModel::new(ModelDesc::llama2_7b(), testbed, 1);
        let mut e = Engine::new(cost, EngineConfig::default(), Box::new(CpuGreedyPolicy));
        e.submit(Request::new(0, 0.0, 31, 30)).unwrap();
        e.submit(Request::new(1, 0.0, 31, 30)).unwrap();
        assert_eq!(e.step().prefill_tokens, 62);
        assert_eq!(e.step().decode_tokens, 2);
        let stalled = e.step();
        assert_eq!((stalled.prefill_tokens, stalled.decode_tokens), (0, 0));
        assert!(e.kv().device_of(1).is_err(), "the newest holder is preempted");
        assert_eq!(e.reserved, Some((0, Device::Cpu)));
        let next = e.step();
        assert_eq!((next.prefill_tokens, next.decode_tokens), (0, 1), "only the owner moves");
        assert_eq!(e.reserved, None);
    }

    #[test]
    fn disabled_disk_tier_has_zero_capacity() {
        let e = a10g_engine();
        assert_eq!(e.kv().pool(Device::Disk).capacity_tokens(), 0);
        assert_eq!(e.prefix_hit_tokens(), 0);
        assert_eq!(e.cow_splits(), 0);
        assert_eq!(e.disk_resident(), 0);
    }

    #[test]
    fn oversized_prompt_completes_on_idle_t4_via_cpu() {
        // Regression test for the fleet_mix clamp: an 8192-token prompt exceeds the T4's
        // GPU pool (~3.1k tokens with default batching), so a fresh submission to an
        // *idle* engine used to start prefilling on the GPU, wedge mid-prefill, and
        // restart forever. The scheduler now targets the CPU pool
        // from the first chunk whenever the prompt alone cannot fit the GPU pool.
        // Prompts of 3,121–3,123 tokens fit the configured GPU budget (3,123) but not
        // the pool's whole blocks (3,120), so they must take the CPU path too.
        for prompt in [3_121, 3_122, 3_123, 8_192] {
            let mut e = engine(Testbed::g4dn_4xlarge(), ModelDesc::llama2_7b());
            assert!(
                prompt > e.kv().pool(Device::Gpu).capacity_tokens(),
                "fixture must actually exceed the GPU pool"
            );
            e.submit(Request::new(1, 0.0, prompt, 16)).unwrap();
            let iters = e.run_to_completion(50_000);
            assert!(iters < 50_000, "oversized prompt {prompt} must not livelock");
            assert_eq!(e.completed(), 1);
            assert_eq!(e.total_decode_tokens(), 16);
        }
    }
}
