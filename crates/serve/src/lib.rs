//! # glova-serve — sizing as a service
//!
//! A long-running process answering sizing requests needs more than the
//! one-shot [`SizingCampaign`] API: requests arrive concurrently, each
//! with its own circuit / verification method / goal, and clients want
//! to watch progress while a campaign is still running. This crate is
//! that serving layer, built entirely on `std` (no async runtime, no
//! network — the transport is whatever embeds the server):
//!
//! - [`CampaignServer`] — a fixed fleet of worker threads multiplexing
//!   any number of queued [`SizingRequest`]s; submission returns a
//!   [`JobId`] immediately.
//! - [`JobSnapshot`] — a pollable point-in-time view of one job: its
//!   [`JobStatus`], every [`CampaignStep`] completed so far (streamed by
//!   the campaign's step observer the moment each step finishes), and
//!   the final [`CampaignResult`] once done.
//! - Process-wide sharing: circuits resolve their solver pools through a
//!   [`SolverRegistry`] and their evaluation caches through a
//!   [`CacheRegistry`] — two instantiations of one generic
//!   [`Registry`](glova_spice::registry::Registry), which implements
//!   lookup, confirm, eviction and the counters once — so N concurrent
//!   campaigns on one topology pay **one** symbolic prime (instead of
//!   N) and answer each other's repeated evaluation points.
//!
//! # Determinism
//!
//! A campaign's trajectory is bitwise identical whether it runs alone or
//! beside K concurrent campaigns, on any worker-fleet size. The chain of
//! custody: every evaluation is a pure function of
//! `(design, corner, mismatch)`; registry-shared solver pools clone one
//! canonical primed prototype and retire non-canonical solvers (see
//! [`SolverRegistry`]); shared cache hits return bitwise-identical
//! `SimOutcome`s keyed by the full identity of the evaluation semantics
//! (see [`CacheRegistry`]); and each campaign draws from its own
//! seed-derived RNG streams, never from shared state. Which worker runs
//! a job — and what runs beside it — is therefore unobservable in the
//! results. `tests/serve_concurrency.rs` is the battery that locks this
//! in.
//!
//! # Quickstart
//!
//! ```
//! use glova::prelude::*;
//! use glova_serve::{CampaignServer, CircuitSpec, JobBudget, SizingRequest};
//!
//! let server = CampaignServer::new(2);
//! // A budgeted submit: the campaign stops cooperatively before it
//! // would exceed 4000 simulations, keeping its partial trajectory.
//! let request = SizingRequest::new(
//!     CircuitSpec::InverterChain { stages: 2 },
//!     CampaignConfig::quick(VerificationMethod::Corner).with_max_steps(5),
//!     42,
//! )
//! .with_budget(JobBudget::unlimited().with_max_sims(4000));
//! let id = server.submit(request).unwrap();
//! let snapshot = server.wait(id).unwrap();
//! assert!(snapshot.status.is_terminal());
//! let result = snapshot.result.expect("budgeted jobs keep their result");
//! assert!(result.total_sims <= 4000);
//! let report = server.shutdown();
//! assert_eq!(report.jobs_completed + report.jobs_budget_exhausted, 1);
//! ```

use glova::cache::{CacheRegistry, EvalCache};
use glova::campaign::{
    CampaignConfig, CampaignControl, CampaignResult, CampaignStep, CampaignTermination,
    SizingCampaign,
};
use glova::engine::EngineSpec;
use glova::fault::FaultPlan;
use glova_circuits::{Circuit, SpiceInverterChain, SpiceOta, SpiceSenseAmpArray};
use glova_spice::registry::SolverRegistry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which circuit a request sizes — the serving-layer catalogue of the
/// SPICE-backed testcases (each resolves its solver pool through the
/// server's [`SolverRegistry`], so topology-sharing requests share one
/// primed symbolic analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitSpec {
    /// [`SpiceInverterChain`] with the given stage count (`stages ≥ 2`).
    InverterChain {
        /// Number of inverter stages.
        stages: usize,
    },
    /// The two-stage [`SpiceOta`].
    Ota,
    /// [`SpiceSenseAmpArray`] with the given shape (both sides `> 0`).
    SenseAmpArray {
        /// Word lines.
        rows: usize,
        /// Bit-line columns.
        cols: usize,
    },
}

impl CircuitSpec {
    /// Rejects shapes the circuit constructors would panic on.
    fn validate(&self) -> Result<(), ServeError> {
        match *self {
            CircuitSpec::InverterChain { stages } if stages < 2 => Err(ServeError::InvalidRequest(
                format!("inverter chain needs at least 2 stages, got {stages}"),
            )),
            CircuitSpec::SenseAmpArray { rows, cols } if rows == 0 || cols == 0 => {
                Err(ServeError::InvalidRequest(format!(
                    "sense-amp array needs a non-empty shape, got {rows}×{cols}"
                )))
            }
            _ => Ok(()),
        }
    }

    /// The metric count of the circuit [`build`](Self::build) returns,
    /// known without building it, so submission primes no pool.
    fn metric_count(&self) -> usize {
        match self {
            CircuitSpec::InverterChain { .. }
            | CircuitSpec::Ota
            | CircuitSpec::SenseAmpArray { .. } => 3,
        }
    }

    /// Builds the circuit on a registry-shared pool, returning it with
    /// its topology fingerprint (one of the cache identity words).
    fn build(&self, solvers: &SolverRegistry) -> (Arc<dyn Circuit>, u64) {
        match *self {
            CircuitSpec::InverterChain { stages } => {
                let c = SpiceInverterChain::from_registry(stages, solvers);
                let fp = c.topology_fingerprint();
                (Arc::new(c), fp)
            }
            CircuitSpec::Ota => {
                let c = SpiceOta::from_registry(solvers);
                let fp = c.topology_fingerprint();
                (Arc::new(c), fp)
            }
            CircuitSpec::SenseAmpArray { rows, cols } => {
                let c = SpiceSenseAmpArray::from_registry(rows, cols, solvers);
                let fp = c.topology_fingerprint();
                (Arc::new(c), fp)
            }
        }
    }

    /// The identity words a shared evaluation cache is keyed by.
    ///
    /// Cached `SimOutcome`s bake in the circuit's metric extraction and
    /// base-spec reward, so the identity must pin everything those
    /// depend on: the catalogue variant, its shape parameters (which fix
    /// the spec thresholds), and the evaluated topology. Verification
    /// method, engine, and goal factors deliberately do **not**
    /// participate — they select *which* points are evaluated (and goal
    /// rewards are re-derived from cached raw metrics), so requests
    /// differing only in those share one cache. That sharing is the
    /// serving win.
    fn cache_identity(&self, fingerprint: u64) -> Vec<u64> {
        match *self {
            CircuitSpec::InverterChain { stages } => vec![1, stages as u64, fingerprint],
            CircuitSpec::Ota => vec![2, fingerprint],
            CircuitSpec::SenseAmpArray { rows, cols } => {
                vec![3, rows as u64, cols as u64, fingerprint]
            }
        }
    }
}

/// Scheduling class of a job. Workers always pop the interactive queue
/// first, so an interactive probe submitted behind a long batch backlog
/// overtakes every queued batch job (it never preempts one already
/// running — priorities order the queue, they don't interrupt work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JobPriority {
    /// Latency-sensitive probes: popped before any queued batch job.
    Interactive,
    /// Throughput work (family sweeps, parameter studies) — the default.
    #[default]
    Batch,
}

/// Per-job resource budget, enforced cooperatively by the campaign loop
/// (checked before every simulation dispatch, so `max_sims` is **exact**:
/// a budgeted job never runs a simulation past the cap).
///
/// A budget violation terminates the job with
/// [`JobStatus::BudgetExhausted`]; everything computed up to that point —
/// trajectory steps, incumbent design, accounting — is preserved in the
/// snapshot's partial [`CampaignResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobBudget {
    /// Hard cap on simulations. `None` = unlimited.
    pub max_sims: Option<u64>,
    /// Wall-clock allowance measured from the moment the job **starts
    /// running** (queue time excluded). `None` = unlimited, as is an
    /// allowance that reaches past the last representable instant.
    pub max_wall: Option<Duration>,
    /// Absolute deadline (queue time included). `None` = no deadline.
    pub deadline: Option<Instant>,
}

impl JobBudget {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps total simulations (builder style).
    pub fn with_max_sims(mut self, max_sims: u64) -> Self {
        self.max_sims = Some(max_sims);
        self
    }

    /// Caps running wall time (builder style).
    pub fn with_max_wall(mut self, max_wall: Duration) -> Self {
        self.max_wall = Some(max_wall);
        self
    }

    /// Sets an absolute deadline (builder style).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One sizing job: a circuit, a full campaign configuration (method,
/// engine, cache, pruning, goal factors, budgets — per request), and the
/// campaign seed.
#[derive(Debug, Clone)]
pub struct SizingRequest {
    /// Circuit to size.
    pub circuit: CircuitSpec,
    /// Campaign configuration. `config.cache` selects the shared-cache
    /// configuration this job resolves through the server's
    /// [`CacheRegistry`] (`None` runs uncached).
    pub config: CampaignConfig,
    /// Campaign seed — with the same `circuit` and `config`, the seed
    /// fully determines the trajectory, no matter what else the server
    /// is running.
    pub seed: u64,
    /// Resource budget (default: unlimited).
    pub budget: JobBudget,
    /// Scheduling class (default: [`JobPriority::Batch`]).
    pub priority: JobPriority,
    /// Deterministic fault-injection schedule (default: none). A plan
    /// applies only to this job's own simulation stream — injected
    /// outcomes bypass the shared cache, so they can never leak into a
    /// concurrent job (see [`glova::fault`]).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl SizingRequest {
    /// Bundles a request with no budget, batch priority and no faults.
    pub fn new(circuit: CircuitSpec, config: CampaignConfig, seed: u64) -> Self {
        Self {
            circuit,
            config,
            seed,
            budget: JobBudget::default(),
            priority: JobPriority::default(),
            fault_plan: None,
        }
    }

    /// Attaches a resource budget (builder style).
    pub fn with_budget(mut self, budget: JobBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the scheduling class (builder style).
    pub fn with_priority(mut self, priority: JobPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a deterministic fault plan (builder style; test/bench
    /// harness hook).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Serving-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request can never run (bad circuit shape, empty config).
    InvalidRequest(String),
    /// No job with the given id was ever submitted to this server.
    UnknownJob(JobId),
    /// The server is shutting down and no longer accepts submissions.
    ShuttingDown,
    /// The bounded queue is full — shed-load backpressure. The request
    /// was **not** enqueued; clients retry later or submit elsewhere.
    QueueFull {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidRequest(why) => write!(f, "invalid sizing request: {why}"),
            ServeError::UnknownJob(id) => write!(f, "unknown job {id:?}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::QueueFull { capacity } => {
                write!(f, "submit queue is full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Opaque handle to a submitted job (process-unique per server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running the campaign.
    Running,
    /// The campaign finished; the snapshot carries its result.
    Done,
    /// The campaign panicked; the snapshot carries the panic message.
    /// The worker survives — one poisoned request cannot take down the
    /// fleet.
    Failed,
    /// The job was cancelled — by [`CampaignServer::cancel`] or by
    /// [`CampaignServer::shutdown_now`]/`Drop`. A job cancelled while
    /// running keeps its partial trajectory and partial
    /// [`CampaignResult`] in the snapshot; a job cancelled while queued
    /// has neither (it never ran).
    Cancelled,
    /// The job hit its [`JobBudget`] (`max_sims`, `max_wall` or
    /// `deadline`). The snapshot carries the partial trajectory and
    /// partial result; simulations never exceed `max_sims`.
    BudgetExhausted,
}

impl JobStatus {
    /// Whether the job has finished (successfully or not).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled | JobStatus::BudgetExhausted
        )
    }
}

/// Point-in-time view of one job, cheap to poll while it runs.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job this snapshot describes.
    pub id: JobId,
    /// Lifecycle state at snapshot time.
    pub status: JobStatus,
    /// Every campaign step completed so far, streamed in step order the
    /// moment each completes (the full trajectory once `Done`).
    pub steps: Vec<CampaignStep>,
    /// The campaign result (populated once `Done`).
    pub result: Option<CampaignResult>,
    /// The panic message (populated once `Failed`).
    pub error: Option<String>,
}

/// Final tally returned by [`CampaignServer::shutdown`] and
/// [`CampaignServer::shutdown_now`].
///
/// Every job ever submitted appears in exactly one terminal bucket —
/// nothing is silently dropped: graceful [`shutdown`] runs every queued
/// job to completion, while [`shutdown_now`] drains queued-but-unstarted
/// jobs into a terminal [`JobStatus::Cancelled`] (still visible through
/// any snapshot handle held by a client).
///
/// [`shutdown`]: CampaignServer::shutdown
/// [`shutdown_now`]: CampaignServer::shutdown_now
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Jobs that reached [`JobStatus::Done`].
    pub jobs_completed: u64,
    /// Jobs that reached [`JobStatus::Failed`].
    pub jobs_failed: u64,
    /// Jobs that reached [`JobStatus::Cancelled`].
    pub jobs_cancelled: u64,
    /// Jobs that reached [`JobStatus::BudgetExhausted`].
    pub jobs_budget_exhausted: u64,
    /// Peak queue depth ever observed (both priority classes combined).
    pub queue_high_water: usize,
}

#[derive(Debug)]
struct JobState {
    status: JobStatus,
    steps: Vec<CampaignStep>,
    result: Option<CampaignResult>,
    error: Option<String>,
}

#[derive(Debug)]
struct Job {
    id: JobId,
    request: SizingRequest,
    state: Mutex<JobState>,
    /// Signalled when the job reaches a terminal status.
    done: Condvar,
    /// Cooperative cancellation/budget token, checked by the campaign
    /// loop before every dispatch.
    control: Arc<CampaignControl>,
}

impl Job {
    fn snapshot(&self) -> JobSnapshot {
        let state = self.state.lock().expect("job state poisoned");
        JobSnapshot {
            id: self.id,
            status: state.status,
            steps: state.steps.clone(),
            result: state.result.clone(),
            error: state.error.clone(),
        }
    }
}

#[derive(Debug, Default)]
struct QueueState {
    /// Interactive jobs — always popped before any batch job.
    interactive: VecDeque<Arc<Job>>,
    /// Batch jobs — popped only when no interactive job waits.
    batch: VecDeque<Arc<Job>>,
    /// Peak combined depth ever observed (reported at shutdown).
    high_water: usize,
    shutting_down: bool,
}

impl QueueState {
    fn depth(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    fn pop(&mut self) -> Option<Arc<Job>> {
        self.interactive.pop_front().or_else(|| self.batch.pop_front())
    }
}

#[derive(Debug)]
struct ServerShared {
    queue: Mutex<QueueState>,
    /// Signalled on submission and on shutdown.
    work_available: Condvar,
    jobs: Mutex<HashMap<JobId, Arc<Job>>>,
    /// Queue bound for shed-load backpressure (`usize::MAX` = unbounded).
    queue_capacity: AtomicUsize,
    solvers: Arc<SolverRegistry>,
    caches: Arc<CacheRegistry>,
}

/// A fixed worker fleet multiplexing queued sizing campaigns (see the
/// [crate docs](self)).
///
/// Dropping the server without calling [`shutdown`](Self::shutdown)
/// also drains the queue and joins the workers.
#[derive(Debug)]
pub struct CampaignServer {
    shared: Arc<ServerShared>,
    workers: Vec<JoinHandle<()>>,
    next_id: Mutex<u64>,
}

impl CampaignServer {
    /// Spawns a server with `workers` worker threads and its own (fresh)
    /// solver and cache registries.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        Self::with_registries(
            workers,
            Arc::new(SolverRegistry::new()),
            Arc::new(CacheRegistry::new()),
        )
    }

    /// Spawns a server resolving solver pools and evaluation caches
    /// through the given registries — the hook for sharing registries
    /// across servers (or with non-served library code) and for
    /// inspecting registry counters in tests and benches.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_registries(
        workers: usize,
        solvers: Arc<SolverRegistry>,
        caches: Arc<CacheRegistry>,
    ) -> Self {
        assert!(workers > 0, "a server needs at least one worker");
        let shared = Arc::new(ServerShared {
            queue: Mutex::new(QueueState::default()),
            work_available: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            queue_capacity: AtomicUsize::new(usize::MAX),
            solvers,
            caches,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("glova-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawn")
            })
            .collect();
        Self { shared, workers: handles, next_id: Mutex::new(0) }
    }

    /// Bounds the submit queue (builder style): once `capacity` jobs are
    /// queued (both priority classes combined, running jobs excluded),
    /// further submissions fail fast with [`ServeError::QueueFull`]
    /// instead of growing the backlog without bound. Clamped to ≥ 1.
    pub fn with_queue_capacity(self, capacity: usize) -> Self {
        self.shared.queue_capacity.store(capacity.max(1), Ordering::Relaxed);
        self
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued (both priority classes, running excluded).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue poisoned").depth()
    }

    /// The solver registry this server resolves pools through.
    pub fn solver_registry(&self) -> &SolverRegistry {
        &self.shared.solvers
    }

    /// The cache registry this server resolves evaluation caches
    /// through.
    pub fn cache_registry(&self) -> &CacheRegistry {
        &self.shared.caches
    }

    /// Validates and enqueues a request, returning its job id
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for shapes the circuit
    /// constructors reject, an engine with more workers than the host's
    /// available parallelism (`EngineSpec::Threaded(0)`'s sizing), or a
    /// configuration that fails [`CampaignConfig::check`] against the
    /// circuit's metrics — checked here, so a bad request fails before it
    /// queues or pays for a simulation;
    /// [`ServeError::ShuttingDown`] after [`shutdown`](Self::shutdown)
    /// has begun (checked under the queue lock, so a submit racing a
    /// concurrent shutdown either lands in the drain or fails fast —
    /// never limbo); [`ServeError::QueueFull`] when a configured
    /// [queue bound](Self::with_queue_capacity) is hit (the request is
    /// not enqueued).
    pub fn submit(&self, request: SizingRequest) -> Result<JobId, ServeError> {
        request.circuit.validate()?;
        let config = &request.config;
        // Every dispatch of a threaded engine spawns up to its worker
        // count in scoped threads, on batches the request sizes itself
        // (a yield grid is corners × `yield_samples`): an unchecked count
        // would let one request spawn tens of thousands of threads on a
        // fleet worker.
        if config.engine.resolved_workers() > EngineSpec::Threaded(0).resolved_workers() {
            let why = "engine workers must not exceed the host's available parallelism";
            return Err(ServeError::InvalidRequest(why.into()));
        }
        config.check(request.circuit.metric_count()).map_err(ServeError::InvalidRequest)?;
        let mut control = CampaignControl::new();
        if let Some(max_sims) = request.budget.max_sims {
            control = control.with_max_sims(max_sims);
        }
        if let Some(deadline) = request.budget.deadline {
            control = control.with_deadline(deadline);
        }
        let id = {
            let mut next = self.next_id.lock().expect("id counter poisoned");
            *next += 1;
            JobId(*next)
        };
        let priority = request.priority;
        let job = Arc::new(Job {
            id,
            request,
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                steps: Vec::new(),
                result: None,
                error: None,
            }),
            done: Condvar::new(),
            control: Arc::new(control),
        });
        {
            // Job-table insertion happens under the queue lock, so a
            // concurrent shutdown that observes the queue also observes
            // every job that will ever be in it — the shutdown tally can
            // never miss a submit that raced it.
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            if queue.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            let capacity = self.shared.queue_capacity.load(Ordering::Relaxed);
            if queue.depth() >= capacity {
                return Err(ServeError::QueueFull { capacity });
            }
            self.shared.jobs.lock().expect("job table poisoned").insert(id, job.clone());
            match priority {
                JobPriority::Interactive => queue.interactive.push_back(job),
                JobPriority::Batch => queue.batch.push_back(job),
            }
            queue.high_water = queue.high_water.max(queue.depth());
        }
        self.shared.work_available.notify_one();
        Ok(id)
    }

    /// Cancels a job. Queued jobs transition to a terminal
    /// [`JobStatus::Cancelled`] immediately and never run; running jobs
    /// stop cooperatively at the campaign loop's next control check,
    /// preserving the partial trajectory in the snapshot. Cancelling an
    /// already-terminal job is a no-op.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] if the id was never issued.
    pub fn cancel(&self, id: JobId) -> Result<(), ServeError> {
        let job = self.job(id)?;
        job.control.cancel();
        // Remove it from the queue (if still there) under the queue
        // lock, then finalize: a job a worker already popped is Running
        // or about to be — its own control check finishes the cancel.
        let was_queued = {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            let before = queue.depth();
            queue.interactive.retain(|j| j.id != id);
            queue.batch.retain(|j| j.id != id);
            queue.depth() != before
        };
        if was_queued {
            let mut state = job.state.lock().expect("job state poisoned");
            if state.status == JobStatus::Queued {
                state.status = JobStatus::Cancelled;
                drop(state);
                job.done.notify_all();
            }
        }
        Ok(())
    }

    /// A point-in-time view of the job (non-blocking).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] if the id was never issued.
    pub fn snapshot(&self, id: JobId) -> Result<JobSnapshot, ServeError> {
        Ok(self.job(id)?.snapshot())
    }

    /// Blocks until the job reaches a terminal status, returning its
    /// final snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] if the id was never issued.
    pub fn wait(&self, id: JobId) -> Result<JobSnapshot, ServeError> {
        let job = self.job(id)?;
        let mut state = job.state.lock().expect("job state poisoned");
        while !state.status.is_terminal() {
            state = job.done.wait(state).expect("job state poisoned");
        }
        drop(state);
        Ok(job.snapshot())
    }

    /// Graceful shutdown: stops accepting submissions, **runs every
    /// queued job to completion**, joins the workers, and tallies the
    /// outcomes. Every job ever submitted lands in exactly one terminal
    /// bucket of the report.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.tally()
    }

    /// Immediate shutdown: stops accepting submissions, drains
    /// queued-but-unstarted jobs into a terminal [`JobStatus::Cancelled`]
    /// (visible through any held snapshot handle), cooperatively cancels
    /// running jobs (they keep their partial trajectories), joins the
    /// workers, and tallies. `Drop` uses the same semantics.
    pub fn shutdown_now(mut self) -> ShutdownReport {
        self.cancel_pending_and_running();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.tally()
    }

    fn tally(&self) -> ShutdownReport {
        let high_water = self.shared.queue.lock().expect("queue poisoned").high_water;
        let jobs = self.shared.jobs.lock().expect("job table poisoned");
        let mut report = ShutdownReport {
            jobs_completed: 0,
            jobs_failed: 0,
            jobs_cancelled: 0,
            jobs_budget_exhausted: 0,
            queue_high_water: high_water,
        };
        for job in jobs.values() {
            match job.state.lock().expect("job state poisoned").status {
                JobStatus::Done => report.jobs_completed += 1,
                JobStatus::Failed => report.jobs_failed += 1,
                JobStatus::Cancelled => report.jobs_cancelled += 1,
                JobStatus::BudgetExhausted => report.jobs_budget_exhausted += 1,
                JobStatus::Queued | JobStatus::Running => {
                    unreachable!("drained shutdown left a live job")
                }
            }
        }
        report
    }

    fn begin_shutdown(&self) {
        self.shared.queue.lock().expect("queue poisoned").shutting_down = true;
        self.shared.work_available.notify_all();
    }

    /// Flips the server into shutdown, drains the queue into terminal
    /// `Cancelled` states, and cancels every live job's control token.
    fn cancel_pending_and_running(&self) {
        let drained: Vec<Arc<Job>> = {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            queue.shutting_down = true;
            let mut drained: Vec<Arc<Job>> = queue.interactive.drain(..).collect();
            drained.extend(queue.batch.drain(..));
            drained
        };
        self.shared.work_available.notify_all();
        for job in &drained {
            job.control.cancel();
            let mut state = job.state.lock().expect("job state poisoned");
            if state.status == JobStatus::Queued {
                state.status = JobStatus::Cancelled;
                drop(state);
                job.done.notify_all();
            }
        }
        // Jobs a worker already picked up stop cooperatively at their
        // next control check (terminal jobs ignore the stale flag).
        for job in self.shared.jobs.lock().expect("job table poisoned").values() {
            if !job.state.lock().expect("job state poisoned").status.is_terminal() {
                job.control.cancel();
            }
        }
    }

    fn job(&self, id: JobId) -> Result<Arc<Job>, ServeError> {
        self.shared
            .jobs
            .lock()
            .expect("job table poisoned")
            .get(&id)
            .cloned()
            .ok_or(ServeError::UnknownJob(id))
    }
}

impl Drop for CampaignServer {
    fn drop(&mut self) {
        // Drop is the impatient path (shutdown_now semantics): queued
        // jobs are drained to terminal `Cancelled`, running jobs stop at
        // their next control check. Call `shutdown()` for a graceful
        // full drain.
        self.cancel_pending_and_running();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &ServerShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.pop() {
                    break job;
                }
                if queue.shutting_down {
                    return;
                }
                queue = shared.work_available.wait(queue).expect("queue poisoned");
            }
        };
        run_job(shared, &job);
    }
}

fn run_job(shared: &ServerShared, job: &Job) {
    {
        let mut state = job.state.lock().expect("job state poisoned");
        // A cancel may have landed between the queue pop and here (or
        // the cancel lost the queue-removal race) — honor it before
        // spending any work.
        if job.control.is_cancelled() {
            state.status = JobStatus::Cancelled;
            drop(state);
            job.done.notify_all();
            return;
        }
        state.status = JobStatus::Running;
    }
    // `max_wall` is measured from run start (queue time excluded):
    // translate it to an absolute deadline now, tightening any absolute
    // deadline already on the control. An allowance past the last
    // representable instant sets no deadline.
    if let Some(deadline) =
        job.request.budget.max_wall.and_then(|max_wall| Instant::now().checked_add(max_wall))
    {
        job.control.tighten_deadline(deadline);
    }
    // A panicking campaign (solver assertion, config mismatch the cheap
    // validation missed) fails its own job, never the fleet.
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(shared, job)));
    let mut state = job.state.lock().expect("job state poisoned");
    match outcome {
        Ok(result) => {
            // An interrupted campaign still returns a (partial) result —
            // trajectory, incumbent and accounting survive in the
            // snapshot whatever the terminal status.
            state.status = match result.termination {
                CampaignTermination::Completed => JobStatus::Done,
                CampaignTermination::Cancelled => JobStatus::Cancelled,
                CampaignTermination::BudgetExhausted => JobStatus::BudgetExhausted,
            };
            state.result = Some(result);
        }
        Err(payload) => {
            state.error = Some(panic_message(payload.as_ref()));
            state.status = JobStatus::Failed;
        }
    }
    drop(state);
    job.done.notify_all();
}

fn execute(shared: &ServerShared, job: &Job) -> CampaignResult {
    let request = &job.request;
    let (circuit, fingerprint) = request.circuit.build(&shared.solvers);
    let mut campaign = match request.config.cache {
        Some(cache_config) => {
            let identity = request.circuit.cache_identity(fingerprint);
            let cache = shared.caches.get_or_insert_with(&identity, cache_config, EvalCache::new);
            SizingCampaign::with_shared_cache(circuit, request.config.clone(), cache)
        }
        None => SizingCampaign::new(circuit, request.config.clone()),
    };
    if let Some(plan) = &request.fault_plan {
        campaign = campaign.with_fault_plan(plan.clone());
    }
    campaign.run_controlled(request.seed, &job.control, &mut |step| {
        job.state.lock().expect("job state poisoned").steps.push(step.clone());
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "campaign panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova::fault::FaultKind;
    use glova_variation::config::VerificationMethod;

    fn quick_request(seed: u64) -> SizingRequest {
        SizingRequest::new(
            CircuitSpec::InverterChain { stages: 2 },
            CampaignConfig::quick(VerificationMethod::Corner)
                .with_max_steps(4)
                .with_cache(glova::cache::EvalCacheConfig::default()),
            seed,
        )
    }

    #[test]
    fn submit_poll_wait_roundtrip() {
        let server = CampaignServer::new(2);
        let id = server.submit(quick_request(42)).unwrap();
        // Snapshots are valid at any point in the lifecycle.
        let early = server.snapshot(id).unwrap();
        assert!(matches!(early.status, JobStatus::Queued | JobStatus::Running | JobStatus::Done));
        let done = server.wait(id).unwrap();
        assert_eq!(done.status, JobStatus::Done);
        let result = done.result.expect("done job carries its result");
        assert_eq!(done.steps, result.steps, "streamed steps are the trajectory");
        let report = server.shutdown();
        assert_eq!(
            report,
            ShutdownReport {
                jobs_completed: 1,
                jobs_failed: 0,
                jobs_cancelled: 0,
                jobs_budget_exhausted: 0,
                queue_high_water: 1,
            }
        );
    }

    #[test]
    fn invalid_shapes_are_rejected_at_submission() {
        let server = CampaignServer::new(1);
        let bad_chain = SizingRequest::new(
            CircuitSpec::InverterChain { stages: 1 },
            CampaignConfig::quick(VerificationMethod::Corner),
            1,
        );
        assert!(matches!(server.submit(bad_chain), Err(ServeError::InvalidRequest(_))));
        let bad_array = SizingRequest::new(
            CircuitSpec::SenseAmpArray { rows: 0, cols: 4 },
            CampaignConfig::quick(VerificationMethod::Corner),
            1,
        );
        assert!(matches!(server.submit(bad_array), Err(ServeError::InvalidRequest(_))));
        let mut empty_init = quick_request(1);
        empty_init.config.init_designs = 0;
        assert!(matches!(server.submit(empty_init), Err(ServeError::InvalidRequest(_))));
        let mut no_ensemble = quick_request(1);
        no_ensemble.config.ensemble_size = 0;
        assert!(matches!(server.submit(no_ensemble), Err(ServeError::InvalidRequest(_))));
        let mut zero_width = quick_request(1);
        zero_width.config.hidden = vec![32, 0];
        assert!(matches!(server.submit(zero_width), Err(ServeError::InvalidRequest(_))));
        let mut zero_batch = quick_request(1);
        zero_batch.config.batch_size = 0;
        assert!(matches!(server.submit(zero_batch), Err(ServeError::InvalidRequest(_))));
        // Nothing was ever enqueued.
        assert_eq!(server.shutdown().queue_high_water, 0);
    }

    #[test]
    fn zero_pruning_schedule_is_rejected_at_submission() {
        let server = CampaignServer::new(1);
        for (k, rerank_every) in [(0, 10), (2, 0)] {
            let mut request = quick_request(1);
            request.config.pruning = Some(glova::campaign::PruningConfig { k, rerank_every });
            assert!(
                matches!(server.submit(request), Err(ServeError::InvalidRequest(_))),
                "k = {k}, rerank_every = {rerank_every} must be rejected"
            );
        }
        assert_eq!(server.shutdown().queue_high_water, 0);
    }

    #[test]
    fn out_of_range_yield_confidence_is_rejected_at_submission() {
        let server = CampaignServer::new(1);
        for confidence in [95.0, 1.0, 0.0, -0.5, f64::NAN] {
            let mut request = quick_request(1);
            request.config = request.config.with_yield_estimate(2);
            request.config.yield_confidence = confidence;
            assert!(
                matches!(server.submit(request), Err(ServeError::InvalidRequest(_))),
                "yield_confidence = {confidence} must be rejected"
            );
        }
        // Without a yield estimate the confidence is never used.
        let mut unused = quick_request(1);
        unused.config.yield_confidence = 95.0;
        let id = server.submit(unused).expect("confidence unused without yield samples");
        assert_eq!(server.wait(id).unwrap().status, JobStatus::Done);
        assert_eq!(server.shutdown().queue_high_water, 1);
    }

    #[test]
    fn malformed_goal_factors_are_rejected_at_submission() {
        let server = CampaignServer::new(1);
        let bad_goals = [
            vec![1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, -1.0, 1.0],
            vec![1.0, f64::NAN, 1.0],
            vec![1.0, f64::INFINITY, 1.0],
        ];
        for goal in bad_goals {
            let mut request = quick_request(1);
            request.config.goal_factors = Some(goal.clone());
            assert!(
                matches!(server.submit(request), Err(ServeError::InvalidRequest(_))),
                "goal {goal:?} accepted"
            );
        }
        let mut good = quick_request(1);
        good.config.goal_factors = Some(vec![1.0, 1.1, 0.9]);
        let id = server.submit(good).expect("a well-formed goal is accepted");
        assert_eq!(server.wait(id).unwrap().status, JobStatus::Done);
        assert_eq!(server.shutdown().queue_high_water, 1);
    }

    #[test]
    fn a_huge_yield_estimate_respects_the_job_budget() {
        // Regression: the estimate's price wrapped to 14 sims, so the job
        // started it under a 200-sim budget and failed on the allocation.
        let mut request = quick_request(1).with_budget(JobBudget::unlimited().with_max_sims(200));
        request.config = request
            .config
            .with_goal(vec![100.0, 0.01, 100.0])
            .with_yield_estimate(614_891_469_123_651_721);
        let server = CampaignServer::new(1);
        let id = server.submit(request).unwrap();
        let done = server.wait(id).unwrap();
        assert_eq!(done.status, JobStatus::Done, "{:?}", done.error);
        let result = done.result.expect("done job carries its result");
        assert!(result.success && result.yield_estimate.is_none());
        assert!(result.total_sims <= 200);
        server.shutdown();
    }

    #[test]
    fn engine_wider_than_the_host_is_rejected_at_submission() {
        let server = CampaignServer::new(1);
        let host = EngineSpec::Threaded(0).resolved_workers();
        let request = |engine| {
            let mut request = quick_request(1);
            request.config = request.config.with_engine(engine).with_max_steps(1);
            request
        };
        for engine in [EngineSpec::Threaded(host + 1), EngineSpec::Threaded(usize::MAX)] {
            assert!(
                matches!(server.submit(request(engine)), Err(ServeError::InvalidRequest(_))),
                "{engine:?} must be rejected on a {host}-worker host"
            );
        }
        // Nothing rejected reached the queue, so no worker ran it and no
        // engine thread was spawned for it.
        assert_eq!(server.queue_depth(), 0);
        for engine in [EngineSpec::Sequential, EngineSpec::Threaded(0), EngineSpec::Threaded(host)]
        {
            let id = server.submit(request(engine)).expect("an engine within the host is accepted");
            assert_eq!(server.wait(id).unwrap().status, JobStatus::Done, "{engine:?}");
        }
        let report = server.shutdown();
        assert_eq!((report.jobs_completed, report.queue_high_water), (3, 1));
    }

    #[test]
    fn metric_count_matches_each_built_circuit() {
        let solvers = SolverRegistry::new();
        for spec in [
            CircuitSpec::InverterChain { stages: 2 },
            CircuitSpec::Ota,
            CircuitSpec::SenseAmpArray { rows: 2, cols: 2 },
        ] {
            assert_eq!(spec.metric_count(), spec.build(&solvers).0.spec().len(), "{spec:?}");
        }
    }

    #[test]
    fn unknown_job_is_an_error() {
        let server = CampaignServer::new(1);
        let bogus = JobId(999);
        match server.snapshot(bogus) {
            Err(ServeError::UnknownJob(id)) => assert_eq!(id, bogus),
            other => panic!("expected UnknownJob, got {other:?}"),
        }
        match server.wait(bogus) {
            Err(ServeError::UnknownJob(id)) => assert_eq!(id, bogus),
            other => panic!("expected UnknownJob, got {other:?}"),
        }
    }

    #[test]
    fn panicking_job_fails_without_killing_the_fleet() {
        let server = CampaignServer::new(1);
        // A panic injected at the first simulation passes submission but
        // unwinds inside the campaign — the worker must absorb it.
        let poisoned = quick_request(7)
            .with_fault_plan(Arc::new(FaultPlan::new().with_fault(0, FaultKind::Panic)));
        let bad = server.submit(poisoned).unwrap();
        let failed = server.wait(bad).unwrap();
        assert_eq!(failed.status, JobStatus::Failed);
        assert!(failed.error.is_some());
        // The same (sole) worker then serves a healthy job.
        let good = server.submit(quick_request(42)).unwrap();
        assert_eq!(server.wait(good).unwrap().status, JobStatus::Done);
        let report = server.shutdown();
        assert_eq!(report.jobs_completed, 1);
        assert_eq!(report.jobs_failed, 1);
        assert_eq!(report.jobs_cancelled, 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_blocks_new_ones() {
        // One worker, several jobs: shutdown must finish them all.
        let server = CampaignServer::new(1);
        let ids: Vec<_> = (0..3).map(|s| server.submit(quick_request(s)).unwrap()).collect();
        let shared = server.shared.clone();
        let report = server.shutdown();
        assert_eq!(report.jobs_completed, 3);
        assert_eq!(report.jobs_failed, 0);
        let jobs = shared.jobs.lock().unwrap();
        for id in ids {
            assert_eq!(jobs[&id].state.lock().unwrap().status, JobStatus::Done);
        }
    }

    #[test]
    fn concurrent_same_topology_jobs_share_one_prime_and_one_cache() {
        let solvers = Arc::new(SolverRegistry::new());
        let caches = Arc::new(CacheRegistry::new());
        let server = CampaignServer::with_registries(4, solvers.clone(), caches.clone());
        let ids: Vec<_> = (0..4).map(|s| server.submit(quick_request(100 + s)).unwrap()).collect();
        for id in ids {
            assert_eq!(server.wait(id).unwrap().status, JobStatus::Done);
        }
        assert_eq!(solvers.primes(), 1, "four same-topology jobs share one symbolic prime");
        assert_eq!(solvers.hits(), 3);
        assert_eq!(caches.len(), 1, "one shared cache for one circuit identity");
        drop(server);
    }
}
