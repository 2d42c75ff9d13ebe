//! A task-graph runner over serial resources in simulated time.
//!
//! The closed-form overlap terms in `neo_sim::transfer` describe *steady-state*
//! pipelines: one formula per regime, no notion of which engine was busy when.
//! [`TaskGraph`] is the finer-grained alternative: a DAG of jobs (layer compute,
//! per-layer KV transfer chunks, CPU attention stages) executed FIFO on a few serial
//! resources (the GPU stream, the CPU pool, each PCIe direction), so transfer/compute
//! overlap *falls out of event ordering* instead of being assumed by a formula. The
//! pricing oracle in [`super::overlap`] is built on it.
//!
//! # Determinism
//!
//! [`TaskGraph::simulate`] repeatedly dispatches the resource with the earliest next
//! event, the lowest resource id first among ties, so a graph always replays the same
//! `(tick, component, event)` trace. Each resource starts its lowest ready [`JobId`]
//! first, so finish times do not depend on that tie order at all.

use std::collections::BTreeSet;

/// One dispatch, as recorded by [`TaskGraph::simulate`] with tracing enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Simulated time of the dispatch.
    pub tick: f64,
    /// Resource that ran.
    pub component: ResourceId,
    /// The resource's name.
    pub name: String,
    /// What the dispatch did: `finish <job>`, `start <job>`, or both joined by `; `.
    pub event: String,
}

/// Identifies a serial resource (GPU stream, CPU pool, one PCIe link direction).
pub type ResourceId = usize;

/// Identifies a job within a [`TaskGraph`].
pub type JobId = usize;

/// One job: runs for `duration` seconds on `resource` once every dependency finished.
#[derive(Debug, Clone)]
struct JobSpec {
    name: String,
    resource: ResourceId,
    duration: f64,
}

/// A DAG of jobs over serial resources.
///
/// Each resource runs one job at a time; among ready jobs it picks the lowest
/// [`JobId`] first (FIFO in construction order).
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    jobs: Vec<JobSpec>,
    deps: Vec<Vec<JobId>>,
    resource_names: Vec<String>,
}

/// Outcome of simulating a [`TaskGraph`].
#[derive(Debug, Clone)]
pub struct TaskGraphRun {
    /// Time the last job finished (0 for an empty graph).
    pub makespan: f64,
    /// Per-job finish times, indexed by [`JobId`].
    pub finish_times: Vec<f64>,
    /// Per-resource busy time (sum of executed job durations).
    pub busy: Vec<f64>,
    /// The dispatch trace, when requested.
    pub trace: Vec<EventRecord>,
}

impl TaskGraph {
    /// An empty graph over `n_resources` serial resources named `r0`, `r1`, ….
    pub fn new(n_resources: usize) -> Self {
        Self::named(&(0..n_resources).map(|r| format!("r{r}")).collect::<Vec<_>>())
    }

    /// An empty graph whose resources carry the given names (shown in event traces).
    pub fn named<S: AsRef<str>>(resource_names: &[S]) -> Self {
        Self {
            jobs: Vec::new(),
            deps: Vec::new(),
            resource_names: resource_names.iter().map(|s| s.as_ref().to_owned()).collect(),
        }
    }

    /// Adds a job and returns its id. Dependencies must already exist (so the graph is
    /// acyclic by construction); zero-duration jobs are allowed.
    ///
    /// # Panics
    ///
    /// Panics if the resource is out of range, a dependency id is not smaller than the
    /// new job's id, or the duration is negative/not finite.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        resource: ResourceId,
        duration: f64,
        deps: &[JobId],
    ) -> JobId {
        assert!(resource < self.resource_names.len(), "resource {resource} out of range");
        assert!(duration.is_finite() && duration >= 0.0, "job duration must be finite and >= 0");
        let id = self.jobs.len();
        for &d in deps {
            assert!(d < id, "dependency {d} of job {id} must be an earlier job");
        }
        self.jobs.push(JobSpec { name: name.into(), resource, duration });
        self.deps.push(deps.to_vec());
        id
    }

    /// Whether the graph holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Executes the graph and returns finish times, per-resource busy time and the
    /// makespan. `trace` enables `(tick, component, event)` recording.
    ///
    /// Each step dispatches the resource with the minimum `(next time, resource id)`,
    /// where a resource's next time is its running job's finish or, when it is free,
    /// the start of its lowest ready job.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `4 × jobs + 8` dispatches or leaves a job unfinished.
    /// Neither can happen for a graph built with [`TaskGraph::push`]; the checks guard
    /// the runner itself.
    pub fn simulate(&self, trace: bool) -> TaskGraphRun {
        let mut runner = Runner::new(self);
        // Each job produces at most two dispatches (start, finish; possibly fused).
        let max_dispatches = 4 * self.jobs.len() + 8;
        let mut dispatches = 0;
        let mut now = 0.0_f64;
        let mut records = Vec::new();
        while let Some((at, resource)) = runner.next_dispatch() {
            dispatches += 1;
            assert!(
                dispatches <= max_dispatches,
                "task graph exceeded {max_dispatches} dispatches without draining"
            );
            now = now.max(at);
            let event = runner.dispatch(resource, now, trace);
            if trace {
                let name = self.resource_names[resource].clone();
                records.push(EventRecord { tick: now, component: resource, name, event });
            }
        }
        assert!(
            runner.finish.iter().all(|t| !t.is_nan()),
            "task graph deadlocked: a job's dependencies never completed"
        );
        let busy: Vec<f64> = (0..self.resource_names.len())
            .map(|r| self.jobs.iter().filter(|j| j.resource == r).map(|j| j.duration).sum())
            .collect();
        let makespan = runner.finish.iter().copied().fold(0.0_f64, f64::max);
        TaskGraphRun { makespan, finish_times: runner.finish, busy, trace: records }
    }
}

/// Mutable state of one [`TaskGraph::simulate`] run.
struct Runner<'g> {
    graph: &'g TaskGraph,
    dependents: Vec<Vec<JobId>>,
    /// Unfinished dependencies per job.
    remaining: Vec<usize>,
    /// Time each job's last dependency finished (NaN until enabled).
    enabled_at: Vec<f64>,
    /// Ready jobs per resource, ordered by job id (FIFO in construction order).
    ready: Vec<BTreeSet<JobId>>,
    /// Each resource's running job and its finish time.
    running: Vec<Option<(JobId, f64)>>,
    /// When each resource last became free.
    free_at: Vec<f64>,
    /// Per-job finish time (NaN until finished).
    finish: Vec<f64>,
}

impl<'g> Runner<'g> {
    fn new(graph: &'g TaskGraph) -> Self {
        let n_jobs = graph.jobs.len();
        let n_resources = graph.resource_names.len();
        let mut dependents = vec![Vec::new(); n_jobs];
        for (id, deps) in graph.deps.iter().enumerate() {
            for &d in deps {
                dependents[d].push(id);
            }
        }
        let remaining: Vec<usize> = graph.deps.iter().map(Vec::len).collect();
        let mut enabled_at = vec![f64::NAN; n_jobs];
        let mut ready = vec![BTreeSet::new(); n_resources];
        for (id, job) in graph.jobs.iter().enumerate() {
            if remaining[id] == 0 {
                enabled_at[id] = 0.0;
                ready[job.resource].insert(id);
            }
        }
        Self {
            graph,
            dependents,
            remaining,
            enabled_at,
            ready,
            running: vec![None; n_resources],
            free_at: vec![0.0; n_resources],
            finish: vec![f64::NAN; n_jobs],
        }
    }

    /// When resource `r` next has something to do, or `None` while it waits on others.
    fn next_tick(&self, r: ResourceId) -> Option<f64> {
        match self.running[r] {
            Some((_, finish)) => Some(finish),
            None => self.ready[r].first().map(|&job| self.enabled_at[job].max(self.free_at[r])),
        }
    }

    /// The resource to dispatch next: minimum `(next time, resource id)`.
    fn next_dispatch(&self) -> Option<(f64, ResourceId)> {
        (0..self.running.len())
            .filter_map(|r| self.next_tick(r).map(|t| (t, r)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// Advances resource `r` to `now`: finishes its running job if due, then starts its
    /// lowest ready job if that job can start by `now` (completion and the next start
    /// may share a tick). Returns what it did when `label` is set, else an empty string.
    fn dispatch(&mut self, r: ResourceId, now: f64, label: bool) -> String {
        let mut event = String::new();
        if let Some((job, finish)) = self.running[r] {
            if now >= finish {
                self.running[r] = None;
                self.free_at[r] = finish;
                self.finish[job] = finish;
                for &dep in &self.dependents[job] {
                    self.remaining[dep] -= 1;
                    if self.remaining[dep] == 0 {
                        self.enabled_at[dep] = finish;
                        self.ready[self.graph.jobs[dep].resource].insert(dep);
                    }
                }
                if label {
                    event = format!("finish {}", self.graph.jobs[job].name);
                }
            }
        }
        if self.running[r].is_none() {
            if let Some(&job) = self.ready[r].first() {
                if self.enabled_at[job].max(self.free_at[r]) <= now {
                    self.ready[r].remove(&job);
                    self.running[r] = Some((job, now + self.graph.jobs[job].duration));
                    if label {
                        if !event.is_empty() {
                            event.push_str("; ");
                        }
                        event.push_str("start ");
                        event.push_str(&self.graph.jobs[job].name);
                    }
                }
            }
        }
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_second_compute_waits_for_its_buffer() {
        // A 2-stage double-buffered pipeline: transfer (resource 1) feeds compute
        // (resource 0), layer by layer.
        let mut g = TaskGraph::new(2);
        let t0 = g.push("xfer0", 1, 2.0, &[]);
        let c0 = g.push("comp0", 0, 1.0, &[t0]);
        let t1 = g.push("xfer1", 1, 2.0, &[]);
        let _c1 = g.push("comp1", 0, 1.0, &[t1, c0]);
        let run = g.simulate(false);
        // The link serializes the transfers; the second compute waits for its buffer.
        assert_eq!(run.makespan, 5.0);
    }

    #[test]
    fn events_dispatch_in_time_order() {
        // Resource 0 runs two 3 s jobs, resource 1 three 2 s jobs; completions
        // interleave by time, not by resource.
        let mut g = TaskGraph::new(2);
        for _ in 0..2 {
            g.push("slow", 0, 3.0, &[]);
        }
        for _ in 0..3 {
            g.push("fast", 1, 2.0, &[]);
        }
        let run = g.simulate(true);
        let log: Vec<(f64, ResourceId)> = run.trace.iter().map(|r| (r.tick, r.component)).collect();
        assert_eq!(log, vec![(0.0, 0), (0.0, 1), (2.0, 1), (3.0, 0), (4.0, 1), (6.0, 0), (6.0, 1)]);
        assert_eq!(run.makespan, 6.0);
    }

    #[test]
    fn same_tick_ties_break_by_id_by_default() {
        // Three resources finish and restart in lockstep; construction order is the
        // reverse of resource order, so only the id tie-break explains the trace.
        let mut g = TaskGraph::new(3);
        for _ in 0..4 {
            for r in (0..3).rev() {
                g.push("tick", r, 1.0, &[]);
            }
        }
        let run = g.simulate(true);
        assert_eq!(run.trace.len(), 15);
        for same_tick in run.trace.chunk_by(|a, b| a.tick == b.tick) {
            let ids: Vec<ResourceId> = same_tick.iter().map(|r| r.component).collect();
            assert_eq!(ids, vec![0, 1, 2], "tick {}", same_tick[0].tick);
        }
    }

    #[test]
    fn trace_records_tick_component_event() {
        let mut g = TaskGraph::named(&["gpu"]);
        let a = g.push("a", 0, 1.5, &[]);
        g.push("b", 0, 1.5, &[a]);
        let run = g.simulate(true);
        let records: Vec<(f64, ResourceId, &str, &str)> = run
            .trace
            .iter()
            .map(|r| (r.tick, r.component, r.name.as_str(), r.event.as_str()))
            .collect();
        assert_eq!(
            records,
            vec![
                (0.0, 0, "gpu", "start a"),
                (1.5, 0, "gpu", "finish a; start b"),
                (3.0, 0, "gpu", "finish b"),
            ]
        );
    }

    #[test]
    fn serial_chain_sums_durations() {
        let mut g = TaskGraph::new(1);
        let a = g.push("a", 0, 1.0, &[]);
        let b = g.push("b", 0, 2.0, &[a]);
        let _c = g.push("c", 0, 3.0, &[b]);
        let run = g.simulate(false);
        assert_eq!(run.makespan, 6.0);
        assert_eq!(run.finish_times, vec![1.0, 3.0, 6.0]);
        assert_eq!(run.busy, vec![6.0]);
    }

    #[test]
    fn independent_jobs_on_distinct_resources_run_in_parallel() {
        let mut g = TaskGraph::new(2);
        g.push("a", 0, 4.0, &[]);
        g.push("b", 1, 3.0, &[]);
        let run = g.simulate(false);
        assert_eq!(run.makespan, 4.0);
    }

    #[test]
    fn one_resource_serializes_fifo_by_job_id() {
        let mut g = TaskGraph::new(1);
        g.push("a", 0, 1.0, &[]);
        g.push("b", 0, 1.0, &[]);
        g.push("c", 0, 1.0, &[]);
        let run = g.simulate(false);
        assert_eq!(run.finish_times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn double_buffered_pipeline_matches_the_closed_form_when_hidden() {
        // t <= c: transfers hide behind compute; total = fill + L*c, exactly the
        // closed-form double_buffered_time.
        let layers = 8;
        let (c, t) = (2.0, 1.0);
        let mut g = TaskGraph::new(2);
        let mut prev_compute: Option<JobId> = None;
        let mut computes = Vec::new();
        for i in 0..layers {
            // Double-buffer depth 2: transfer i waits for compute i-2 to release its
            // buffer; the link itself serializes transfers.
            let mut tdeps: Vec<JobId> = Vec::new();
            if i >= 2 {
                tdeps.push(computes[i - 2]);
            }
            let xfer = g.push(format!("xfer{i}"), 1, t, &tdeps);
            let mut cdeps = vec![xfer];
            if let Some(p) = prev_compute {
                cdeps.push(p);
            }
            let comp = g.push(format!("comp{i}"), 0, c, &cdeps);
            computes.push(comp);
            prev_compute = Some(comp);
        }
        let run = g.simulate(false);
        let closed = neo_sim::transfer::double_buffered_time(layers, c, t);
        assert!((run.makespan - closed).abs() < 1e-12, "event {} closed {closed}", run.makespan);
    }

    #[test]
    fn transfer_bound_pipeline_is_finer_than_the_closed_form() {
        // t > c: the event-ordered pipeline finishes at L*t + c; the closed form
        // charges t + L*t (steady-state cadence), a slight overcount. The task graph
        // must sit at or below the closed form, within one stage time.
        let layers = 8;
        let (c, t) = (1.0, 3.0);
        let mut g = TaskGraph::new(2);
        let mut computes: Vec<JobId> = Vec::new();
        for i in 0..layers {
            let mut tdeps: Vec<JobId> = Vec::new();
            if i >= 2 {
                tdeps.push(computes[i - 2]);
            }
            let xfer = g.push(format!("xfer{i}"), 1, t, &tdeps);
            let mut cdeps = vec![xfer];
            if let Some(&p) = computes.last() {
                cdeps.push(p);
            }
            computes.push(g.push(format!("comp{i}"), 0, c, &cdeps));
        }
        let run = g.simulate(false);
        assert_eq!(run.makespan, layers as f64 * t + c);
        let closed = neo_sim::transfer::double_buffered_time(layers, c, t);
        assert!(run.makespan <= closed);
        assert!(closed - run.makespan <= t);
    }

    #[test]
    fn zero_duration_jobs_complete_at_their_enable_time() {
        let mut g = TaskGraph::new(1);
        let a = g.push("a", 0, 2.0, &[]);
        let b = g.push("b", 0, 0.0, &[a]);
        let run = g.simulate(false);
        assert_eq!(run.finish_times[b], 2.0);
    }

    #[test]
    fn empty_graph_has_zero_makespan() {
        let g = TaskGraph::new(2);
        assert!(g.is_empty());
        let run = g.simulate(false);
        assert_eq!(run.makespan, 0.0);
        assert!(run.finish_times.is_empty());
    }

    #[test]
    fn trace_captures_starts_and_finishes() {
        let mut g = TaskGraph::new(2);
        let a = g.push("load", 1, 1.0, &[]);
        g.push("work", 0, 2.0, &[a]);
        let run = g.simulate(true);
        let events: Vec<(f64, &str)> =
            run.trace.iter().map(|r| (r.tick, r.event.as_str())).collect();
        assert_eq!(
            events,
            vec![
                (0.0, "start load"),
                (1.0, "finish load"),
                (1.0, "start work"),
                (3.0, "finish work"),
            ]
        );
        let untraced = g.simulate(false);
        assert!(untraced.trace.is_empty());
        assert_eq!(untraced.finish_times, run.finish_times);
    }

    #[test]
    fn forward_dependency_is_rejected() {
        let caught = std::panic::catch_unwind(|| {
            let mut g = TaskGraph::new(1);
            g.push("a", 0, 1.0, &[3]);
        });
        let payload = caught.expect_err("a dependency on a later job must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(message.contains("earlier job"), "unexpected panic message: {message}");
    }
}
