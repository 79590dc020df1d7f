//! The in-process service: [`ServeHandle`].
//!
//! One dispatcher thread owns admission: it repeatedly asks the WFQ
//! scheduler for the next dispatchable job, leases worker slots from
//! the shared [`SlotPool`], and spawns a job
//! thread that runs the sweep. All mutable state lives behind one
//! mutex (`Core`) with one condvar for every wake-up (dispatcher,
//! `wait` callers, drain) — the daemon's concurrency is deliberately
//! boring.
//!
//! Authority model: the handle mints three kinds of unforgeable tokens
//! from a SplitMix64 stream over the config seed — the admin token
//! (tenant registration, stats, shutdown), tenant tokens (submitting),
//! and job tokens (status/poll/wait/cancel). Job operations require
//! the *pair* (tenant token, job token): a job token alone is not
//! enough, and a tenant can never address another tenant's job even by
//! guessing its token.

use crate::cache::{CacheEntry, TopologyCache};
use crate::model::{JobSpec, RunOpts};
use crate::sched::{wfq_pick, ServeConfig, TenantConfig, TenantState};
use crate::ServeError;
use ams_exec::{SlotLease, SlotPool};
use ams_lint::{lint_circuit, lint_space, LintPolicy, Verdict};
use ams_scope::MetricsRegistry;
use ams_sweep::{CancelToken, ScenarioResult, SweepReport};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for admission.
    Queued,
    /// Executing on the worker pool.
    Running,
    /// Parked at a bundle boundary by [`ServeHandle::suspend`]: the
    /// completed scenarios stay in the job's record and
    /// [`ServeHandle::resume`] re-queues the remainder. Not terminal —
    /// `wait` keeps blocking until the job is resumed or cancelled.
    Suspended,
    /// Completed; the report is available.
    Done,
    /// Ended in failure; the payload is the rendered cause.
    Failed(String),
    /// Cancelled before completion (queued or mid-run).
    Cancelled,
}

impl JobState {
    /// Stable wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Suspended => "suspended",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// One streamed result event: `(global scenario index, metric row)`,
/// in completion order.
pub type ScenarioEvent = (usize, Vec<f64>);

/// Running totals of a monitored job's per-scenario verdicts: one
/// count per completed scenario and property, folded live from the
/// progress stream (and from the final report once the job is done).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorCounts {
    /// Properties that held with their trigger observed.
    pub pass: u64,
    /// Properties that latched a violation.
    pub fail: u64,
    /// Properties whose trigger never fired.
    pub vacuous: u64,
}

impl MonitorCounts {
    fn add(&mut self, v: &ams_sweep::Verdict) {
        match v {
            ams_sweep::Verdict::Pass => self.pass += 1,
            ams_sweep::Verdict::Fail { .. } => self.fail += 1,
            ams_sweep::Verdict::Vacuous => self.vacuous += 1,
        }
    }
}

/// A point-in-time job status snapshot.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Current lifecycle state.
    pub state: JobState,
    /// Scenarios completed so far (streamed).
    pub completed: usize,
    /// Total scenarios in the job.
    pub total: usize,
    /// Verdict totals so far — `Some` only for a monitored job.
    pub monitors: Option<MonitorCounts>,
}

/// SplitMix64 over a secret seed: the token mint. Tokens are 128 bits
/// of stream output rendered as hex — unguessable without the seed,
/// which never leaves the daemon.
#[derive(Debug)]
struct TokenMint {
    state: u64,
}

impl TokenMint {
    fn new(seed: u64) -> TokenMint {
        TokenMint { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn token(&mut self, prefix: &str) -> String {
        format!("{prefix}-{:016x}{:016x}", self.next_u64(), self.next_u64())
    }
}

#[derive(Debug)]
struct JobRecord {
    /// Owning tenant's *name* (resolved at submit).
    tenant: String,
    spec: JobSpec,
    scenarios: u64,
    shards: usize,
    state: JobState,
    /// Streamed `(scenario index, metric row)` events, arrival order.
    events: Vec<(usize, Vec<f64>)>,
    /// Finished scenarios in completion order, as the progress callback
    /// streams them (monitor verdicts included) — the only copy a
    /// suspended job keeps. A resumed run re-runs only the scenarios
    /// missing here, and on completion these fill in the rest of its
    /// report, which then fingerprints like an uninterrupted one.
    partial: Vec<ScenarioResult>,
    /// Set by [`ServeHandle::suspend`] on a running job: the cancel
    /// token doubles as the suspend signal, and this flag tells the
    /// outcome handler to park the job instead of cancelling it.
    suspend: bool,
    report: Option<SweepReport>,
    cancel: CancelToken,
}

impl JobRecord {
    /// Verdict totals for a monitored job: folded from the final report
    /// when one exists, otherwise from the streamed partials. `None`
    /// for an unmonitored job.
    fn monitor_counts(&self) -> Option<MonitorCounts> {
        self.spec.monitors.as_ref()?;
        let scenarios = self.report.as_ref().map_or(&self.partial, |r| &r.scenarios);
        let mut counts = MonitorCounts::default();
        for v in scenarios.iter().flat_map(|sc| &sc.verdicts) {
            counts.add(v);
        }
        Some(counts)
    }

    fn status(&self) -> JobStatus {
        JobStatus {
            state: self.state.clone(),
            completed: self.events.len(),
            total: self.scenarios as usize,
            monitors: self.monitor_counts(),
        }
    }
}

struct Core {
    mint: TokenMint,
    tenants_by_token: HashMap<String, String>,
    tenants: BTreeMap<String, TenantState>,
    jobs: HashMap<String, JobRecord>,
    cache: TopologyCache,
    metrics: MetricsRegistry,
    draining: bool,
    running_jobs: usize,
}

impl Core {
    fn tenant_name(&self, token: &str) -> Result<String, ServeError> {
        self.tenants_by_token
            .get(token)
            .cloned()
            .ok_or(ServeError::Auth)
    }

    /// Resolves a (tenant token, job token) pair, enforcing the
    /// authority boundary: the job must exist *and* belong to the
    /// tenant the first token names.
    fn job_for(&self, tenant_token: &str, job_token: &str) -> Result<&JobRecord, ServeError> {
        let name = self.tenant_name(tenant_token)?;
        match self.jobs.get(job_token) {
            Some(rec) if rec.tenant == name => Ok(rec),
            _ => Err(ServeError::Auth),
        }
    }

    fn queued_total(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }
}

struct Shared {
    core: Mutex<Core>,
    cv: Condvar,
    slots: SlotPool,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    /// Test pacing: a running job takes this lock after publishing each
    /// scenario, so a test that holds it keeps the job `Running` at a
    /// scenario boundary for as long as it needs.
    #[cfg(test)]
    pace: Mutex<()>,
}

/// A handle on a running service instance. Cheap to clone; all clones
/// address the same daemon state.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    admin: String,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle").finish_non_exhaustive()
    }
}

impl ServeHandle {
    /// Starts the service: seeds the token mint, registers the
    /// configured tenants, and spawns the dispatcher thread.
    pub fn start(config: ServeConfig) -> ServeHandle {
        let mut mint = TokenMint::new(config.seed);
        let admin = mint.token("admin");
        let mut core = Core {
            mint,
            tenants_by_token: HashMap::new(),
            tenants: BTreeMap::new(),
            jobs: HashMap::new(),
            cache: TopologyCache::new(config.cache_bytes),
            metrics: MetricsRegistry::new(),
            draining: false,
            running_jobs: 0,
        };
        for t in &config.tenants {
            let token = core.mint.token("tenant");
            core.tenants_by_token.insert(token, t.name.clone());
            core.tenants
                .insert(t.name.clone(), TenantState::new(t.clone()));
        }
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            cv: Condvar::new(),
            slots: SlotPool::new(config.workers),
            dispatcher: Mutex::new(None),
            #[cfg(test)]
            pace: Mutex::new(()),
        });
        let dispatcher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("serve-dispatch".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawn dispatcher")
        };
        *shared.dispatcher.lock().expect("dispatcher slot") = Some(dispatcher);
        ServeHandle { shared, admin }
    }

    /// The admin capability minted at startup. The daemon owner prints
    /// or configures this out of band; it authorizes tenant
    /// registration, stats and shutdown.
    pub fn admin_token(&self) -> &str {
        &self.admin
    }

    /// Registers a tenant and mints its submit capability.
    ///
    /// # Errors
    ///
    /// [`ServeError::Auth`] for a bad admin token,
    /// [`ServeError::Invalid`] for a duplicate tenant name,
    /// [`ServeError::Shutdown`] while draining.
    pub fn register_tenant(&self, admin: &str, config: TenantConfig) -> Result<String, ServeError> {
        if admin != self.admin {
            return Err(ServeError::Auth);
        }
        let mut core = self.lock();
        if core.draining {
            return Err(ServeError::Shutdown);
        }
        if core.tenants.contains_key(&config.name) {
            return Err(ServeError::invalid(format!(
                "tenant {:?} already registered",
                config.name
            )));
        }
        let token = core.mint.token("tenant");
        core.tenants_by_token
            .insert(token.clone(), config.name.clone());
        core.tenants
            .insert(config.name.clone(), TenantState::new(config));
        Ok(token)
    }

    /// The tenant token minted at startup for a tenant that was listed
    /// in [`ServeConfig::tenants`] (test convenience — over the wire,
    /// tokens come back from registration).
    pub fn tenant_token(&self, name: &str) -> Option<String> {
        let core = self.lock();
        core.tenants_by_token
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .map(|(t, _)| t.clone())
    }

    /// Submits a job, returning its unforgeable job token. The call
    /// never blocks on a full queue: over-depth submits fail fast with
    /// [`ServeError::Backpressure`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Auth`] (bad tenant token),
    /// [`ServeError::Invalid`] (malformed job, or a job whose whole
    /// parameter space is statically doomed — the space-admission
    /// message carries the `SPC` code and a witness box),
    /// [`ServeError::Quota`] (job can never fit the tenant's scenario
    /// budget), [`ServeError::Backpressure`], [`ServeError::Shutdown`].
    pub fn submit(&self, tenant_token: &str, spec: JobSpec) -> Result<String, ServeError> {
        // Validate the sweep and monitor declarations before touching
        // any state: a malformed property spec fails the submit, never
        // a queued job.
        spec.sweep.to_spec()?;
        let monitored = spec.checked_monitor_spec()?.is_some();
        // Space admission: prove the job's parameter box clean — or
        // reject it here, with the same `SPC` code and witness the
        // library's sweep gate would report, before it costs a queue
        // slot. Where the library *prunes* doomed scenarios, the
        // service *rejects* the job: a client that submitted a doomed
        // box should learn about it, not silently get fewer rows back.
        self.space_admit(&spec)?;
        let scenarios = spec.scenario_count() as u64;
        let mut core = self.lock();
        if core.draining {
            return Err(ServeError::Shutdown);
        }
        let name = core.tenant_name(tenant_token)?;
        let tenant = core.tenants.get_mut(&name).expect("tenant state");
        if scenarios > tenant.config.scenario_budget {
            return Err(ServeError::Quota(format!(
                "job has {scenarios} scenarios, tenant budget is {}",
                tenant.config.scenario_budget
            )));
        }
        if tenant.queue.len() >= tenant.config.max_queued {
            return Err(ServeError::Backpressure);
        }
        let shards = spec.workers.clamp(1, tenant.config.max_concurrent_shards);
        let token = {
            let t = core.mint.token("job");
            core.jobs.insert(
                t.clone(),
                JobRecord {
                    tenant: name.clone(),
                    spec,
                    scenarios,
                    shards,
                    state: JobState::Queued,
                    events: Vec::new(),
                    partial: Vec::new(),
                    suspend: false,
                    report: None,
                    cancel: CancelToken::new(),
                },
            );
            t
        };
        core.tenants
            .get_mut(&name)
            .expect("tenant state")
            .queue
            .push_back(token.clone());
        core.metrics.counter_add("serve.jobs.submitted", 1);
        if monitored {
            core.metrics.counter_add("serve.monitor.jobs", 1);
        }
        drop(core);
        self.shared.cv.notify_all();
        Ok(token)
    }

    /// The space-admission gate behind [`ServeHandle::submit`]: runs
    /// the `ams-lint::space` pass over the job's parameter box once per
    /// `(topology, space spec)` fingerprint pair and caches the verdict
    /// — positive or negative — so every later submit of the same pair
    /// replays it for free.
    fn space_admit(&self, spec: &JobSpec) -> Result<(), ServeError> {
        // No binds means a trivial parameter space: the sweep varies
        // nothing, so the per-topology lint verdict (cached on the
        // execute path) already covers the job — nothing to prove here.
        if spec.binds.is_empty() {
            return Ok(());
        }
        let sspec = spec.space_spec();
        // Keyed by *topology*, not job identity: monitors play no part
        // in the space verdict.
        let key = (spec.circuit.fingerprint(), sspec.fingerprint());
        {
            let mut core = self.lock();
            if let Some(verdict) = core.cache.space_lookup(key) {
                return match verdict {
                    Some(msg) => Err(ServeError::invalid(msg.clone())),
                    None => Ok(()),
                };
            }
        }
        // Cold: elaborate and analyze off-lock, then publish the
        // verdict for every future submit of this pair.
        let built = spec.circuit.build()?;
        let report = lint_space("serve", &built.circuit, &sspec);
        let denied = LintPolicy::default().denied(&report.report);
        let rejection = (!denied.is_empty()).then(|| {
            use std::fmt::Write;
            let mut msg = String::from("space lint rejected:");
            for d in &denied {
                let _ = write!(msg, " [{}] {}", d.code, d.message);
                if let Some(Verdict::ProvedViolated(witness)) = report.verdict(d.code) {
                    let _ = write!(msg, " (witness {witness})");
                }
            }
            msg
        });
        let mut core = self.lock();
        core.cache.space_insert(key, rejection.clone());
        if rejection.is_some() {
            core.metrics.counter_add("serve.space.rejects", 1);
        }
        drop(core);
        match rejection {
            Some(msg) => Err(ServeError::invalid(msg)),
            None => Ok(()),
        }
    }

    /// Snapshot of a job's state and progress.
    ///
    /// # Errors
    ///
    /// [`ServeError::Auth`] unless the (tenant, job) pair matches.
    pub fn status(&self, tenant_token: &str, job_token: &str) -> Result<JobStatus, ServeError> {
        let core = self.lock();
        let rec = core.job_for(tenant_token, job_token)?;
        Ok(rec.status())
    }

    /// Streaming delivery: per-scenario `(index, metric row)` events
    /// from cursor `from` onward, plus the current status. Events are
    /// in completion order; a client polls with its last cursor to
    /// consume the stream incrementally while the job runs.
    ///
    /// # Errors
    ///
    /// [`ServeError::Auth`] unless the (tenant, job) pair matches.
    pub fn poll(
        &self,
        tenant_token: &str,
        job_token: &str,
        from: usize,
    ) -> Result<(Vec<ScenarioEvent>, JobStatus), ServeError> {
        let core = self.lock();
        let rec = core.job_for(tenant_token, job_token)?;
        let events = rec.events[from.min(rec.events.len())..].to_vec();
        Ok((events, rec.status()))
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// report. A suspended job keeps `wait` blocked until someone
    /// resumes or cancels it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Auth`], [`ServeError::Failed`] with the rendered
    /// cause, or [`ServeError::Cancelled`].
    pub fn wait(&self, tenant_token: &str, job_token: &str) -> Result<SweepReport, ServeError> {
        let mut core = self.lock();
        loop {
            let rec = core.job_for(tenant_token, job_token)?;
            match &rec.state {
                JobState::Done => {
                    return Ok(rec.report.clone().expect("done job has a report"));
                }
                JobState::Failed(msg) => return Err(ServeError::Failed(msg.clone())),
                JobState::Cancelled => return Err(ServeError::Cancelled),
                JobState::Queued | JobState::Running | JobState::Suspended => {
                    core = self.shared.cv.wait(core).expect("serve core poisoned");
                }
            }
        }
    }

    /// Cancels a job. A queued job is withdrawn immediately; a running
    /// job observes its token at the next bundle boundary, stops,
    /// and frees its worker slots; a suspended job is cancelled in
    /// place and its finished scenarios dropped. Cancelling a terminal job
    /// is a no-op. A cancel overrides a pending suspend: if both race
    /// on a running job, it ends [`JobState::Cancelled`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Auth`] unless the (tenant, job) pair matches.
    pub fn cancel(&self, tenant_token: &str, job_token: &str) -> Result<(), ServeError> {
        let mut core = self.lock();
        let tenant = core.job_for(tenant_token, job_token)?.tenant.clone();
        let rec = core.jobs.get_mut(job_token).expect("job exists");
        match rec.state {
            JobState::Queued => {
                rec.state = JobState::Cancelled;
                rec.cancel.cancel();
                let t = core.tenants.get_mut(&tenant).expect("tenant state");
                t.queue.retain(|j| j != job_token);
                core.metrics.counter_add("serve.jobs.cancelled", 1);
            }
            JobState::Running => {
                rec.suspend = false;
                rec.cancel.cancel();
            }
            JobState::Suspended => {
                rec.state = JobState::Cancelled;
                rec.suspend = false;
                rec.partial.clear();
                core.metrics.counter_add("serve.jobs.cancelled", 1);
            }
            _ => {}
        }
        drop(core);
        self.shared.cv.notify_all();
        Ok(())
    }

    /// Suspends a job at the next bundle boundary. A queued job is
    /// parked immediately; a running job observes its cancel token at
    /// the boundary and parks with its completed scenarios kept in its
    /// record (counted in `serve.checkpoint.stored` when there are
    /// any). Suspending a terminal or already-suspended job is a no-op,
    /// and a suspend that races a completing run simply loses: the job
    /// finishes `Done`.
    ///
    /// A job left suspended at drain time never completes — resume or
    /// cancel it before `shutdown`/`join`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Auth`] unless the (tenant, job) pair matches.
    pub fn suspend(&self, tenant_token: &str, job_token: &str) -> Result<(), ServeError> {
        let mut core = self.lock();
        let tenant = core.job_for(tenant_token, job_token)?.tenant.clone();
        let rec = core.jobs.get_mut(job_token).expect("job exists");
        match rec.state {
            JobState::Queued => {
                rec.state = JobState::Suspended;
                let t = core.tenants.get_mut(&tenant).expect("tenant state");
                t.queue.retain(|j| j != job_token);
                core.metrics.counter_add("serve.jobs.suspended", 1);
            }
            // A cancel already in flight wins; otherwise the cancel
            // token doubles as the suspend signal and the outcome
            // handler parks the job instead of cancelling it.
            JobState::Running if !rec.cancel.is_cancelled() => {
                rec.suspend = true;
                rec.cancel.cancel();
            }
            _ => {}
        }
        drop(core);
        self.shared.cv.notify_all();
        Ok(())
    }

    /// Resumes a suspended job: re-queues it, and its run re-runs
    /// exactly the scenarios that had not finished. The final report —
    /// indices, labels, metric rows, solver counters and fingerprint —
    /// is indistinguishable from an uninterrupted run. A resume that
    /// keeps finished scenarios counts in `serve.checkpoint.restored`,
    /// and their number in `serve.checkpoint.scenarios_restored`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Auth`] unless the (tenant, job) pair matches,
    /// [`ServeError::Invalid`] unless the job is suspended,
    /// [`ServeError::Shutdown`] while draining.
    pub fn resume(&self, tenant_token: &str, job_token: &str) -> Result<(), ServeError> {
        let mut core = self.lock();
        if core.draining {
            return Err(ServeError::Shutdown);
        }
        let tenant = {
            let rec = core.job_for(tenant_token, job_token)?;
            if rec.state != JobState::Suspended {
                return Err(ServeError::invalid(format!(
                    "cannot resume a {} job",
                    rec.state.tag()
                )));
            }
            rec.tenant.clone()
        };
        let rec = core.jobs.get_mut(job_token).expect("job exists");
        rec.suspend = false;
        // The old token is permanently cancelled — the resumed run
        // needs a fresh one (handle.cancel() addresses the new token).
        rec.cancel = CancelToken::new();
        rec.state = JobState::Queued;
        let kept = rec.partial.len() as u64;
        if kept > 0 {
            core.metrics.counter_add("serve.checkpoint.restored", 1);
            core.metrics
                .counter_add("serve.checkpoint.scenarios_restored", kept);
        }
        core.metrics.counter_add("serve.jobs.resumed", 1);
        core.tenants
            .get_mut(&tenant)
            .expect("tenant state")
            .queue
            .push_back(job_token.to_string());
        drop(core);
        self.shared.cv.notify_all();
        Ok(())
    }

    /// A snapshot of the service metrics (`serve.*` counters and
    /// gauges, including the topology-cache accounting).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut core = self.lock();
        let queued = core.queued_total() as f64;
        let running = core.running_jobs as f64;
        let Core { cache, metrics, .. } = &mut *core;
        cache.export_metrics(metrics);
        metrics.gauge_set("serve.queue.depth", queued);
        metrics.gauge_set("serve.jobs.running", running);
        metrics.clone()
    }

    /// Begins draining: new submits and registrations are rejected,
    /// queued and running jobs complete normally. Idempotent.
    pub fn shutdown(&self) {
        self.lock().draining = true;
        self.shared.cv.notify_all();
    }

    /// Whether [`ServeHandle::shutdown`] has been called.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Waits for the drain to finish (dispatcher exited, all jobs
    /// terminal). Call after [`ServeHandle::shutdown`]; joining without
    /// draining first would block forever, so this panics if called
    /// while accepting.
    pub fn join(&self) {
        assert!(self.is_draining(), "join() requires shutdown() first");
        let handle = self
            .shared
            .dispatcher
            .lock()
            .expect("dispatcher slot")
            .take();
        if let Some(h) = handle {
            h.join().expect("dispatcher panicked");
        }
    }

    /// Adds one to the service counter `name`: the transport reports
    /// its own events (refused lines) into the same registry.
    pub(crate) fn count(&self, name: &str) {
        self.lock().metrics.counter_add(name, 1);
    }

    fn lock(&self) -> MutexGuard<'_, Core> {
        self.shared.core.lock().expect("serve core poisoned")
    }
}

/// One admission decision, handed from the dispatcher to a job thread.
struct Dispatch {
    job_token: String,
    spec: JobSpec,
    cancel: CancelToken,
    lease: SlotLease,
}

fn dispatch_loop(shared: &Arc<Shared>) {
    loop {
        let dispatch = {
            let mut core = shared.core.lock().expect("serve core poisoned");
            loop {
                if core.draining && core.queued_total() == 0 && core.running_jobs == 0 {
                    return;
                }
                if let Some(d) = try_dispatch(&mut core, &shared.slots) {
                    break d;
                }
                core = shared.cv.wait(core).expect("serve core poisoned");
            }
        };
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("serve-job".into())
            .spawn(move || run_job(&shared, dispatch))
            .expect("spawn job thread");
    }
}

/// The WFQ admission step, under the core lock. Returns `None` when
/// nothing can dispatch right now (empty queues, quota-blocked
/// tenants, or — head-of-line — the winner's slots are not free yet).
fn try_dispatch(core: &mut Core, slots: &SlotPool) -> Option<Dispatch> {
    // Tenants whose head job fits their own quota compete; the WFQ
    // winner among them is the only one allowed to take slots (no
    // queue-jumping past a slot-starved winner by design).
    let eligible = core.tenants.values().filter(|t| {
        t.queue.front().is_some_and(|job| {
            core.jobs
                .get(job)
                .is_some_and(|rec| t.fits_quota(rec.scenarios, rec.shards))
        })
    });
    let winner = wfq_pick(eligible)?.config.name.clone();
    let job_token = core.tenants[&winner].queue.front().expect("head").clone();
    let (scenarios, shards) = {
        let rec = &core.jobs[&job_token];
        (rec.scenarios, rec.shards)
    };
    let lease = slots.try_acquire(shards)?;
    let tenant = core.tenants.get_mut(&winner).expect("tenant state");
    tenant.queue.pop_front();
    tenant.charge(scenarios, lease.count());
    core.running_jobs += 1;
    let rec = core.jobs.get_mut(&job_token).expect("job exists");
    rec.state = JobState::Running;
    rec.shards = lease.count();
    Some(Dispatch {
        job_token,
        spec: rec.spec.clone(),
        cancel: rec.cancel.clone(),
        lease,
    })
}

/// Runs one admitted job to a terminal state. Owns the slot lease for
/// the duration; dropping it (normal return or panic) frees the slots.
fn run_job(shared: &Arc<Shared>, dispatch: Dispatch) {
    let Dispatch {
        job_token,
        spec,
        cancel,
        lease,
    } = dispatch;
    // Cache entries are keyed by topology: jobs that differ only in
    // monitors still share the elaborated circuit, lint verdict and
    // symbolic factor.
    let fp = spec.circuit.fingerprint();
    let outcome = execute(shared, &job_token, &spec, fp, &cancel, lease.count());
    let mut core = shared.core.lock().expect("serve core poisoned");
    let rec = core.jobs.get_mut(&job_token).expect("job exists");
    let (scenarios, shards, tenant) = (rec.scenarios, rec.shards, rec.tenant.clone());
    match outcome {
        Ok(mut report) => {
            let rec = core.jobs.get_mut(&job_token).expect("job exists");
            merge_restored(&mut report, std::mem::take(&mut rec.partial));
            let totals = report.totals();
            core.metrics
                .counter_add("serve.lu.symbolic_analyses", totals.solve.symbolic_analyses);
            core.metrics
                .counter_add("serve.lu.numeric_refactors", totals.solve.numeric_refactors);
            core.metrics.counter_add("serve.jobs.completed", 1);
            let rec = core.jobs.get_mut(&job_token).expect("job exists");
            rec.report = Some(report);
            rec.state = JobState::Done;
            // A suspend that raced the completing run lost.
            rec.suspend = false;
        }
        Err(ServeError::Cancelled) => {
            let suspend = {
                let rec = core.jobs.get_mut(&job_token).expect("job exists");
                std::mem::take(&mut rec.suspend)
            };
            if suspend {
                // The record keeps the finished scenarios: `status`
                // (progress + verdict counts) stays truthful while the
                // job sits suspended, and the resumed run skips them.
                let rec = core.jobs.get_mut(&job_token).expect("job exists");
                rec.state = JobState::Suspended;
                let kept = !rec.partial.is_empty();
                core.metrics.counter_add("serve.jobs.suspended", 1);
                if kept {
                    core.metrics.counter_add("serve.checkpoint.stored", 1);
                }
            } else {
                core.metrics.counter_add("serve.jobs.cancelled", 1);
                core.jobs.get_mut(&job_token).expect("job exists").state = JobState::Cancelled;
            }
        }
        Err(e) => {
            core.metrics.counter_add("serve.jobs.failed", 1);
            let rec = core.jobs.get_mut(&job_token).expect("job exists");
            rec.suspend = false;
            rec.partial.clear();
            rec.state = JobState::Failed(e.to_string());
        }
    }
    core.tenants
        .get_mut(&tenant)
        .expect("tenant state")
        .release(scenarios, shards);
    core.running_jobs -= 1;
    drop(core);
    drop(lease);
    shared.cv.notify_all();
}

/// The cache-aware execution path: resolve the topology (warm or
/// cold), then run the sweep with streaming progress.
fn execute(
    shared: &Arc<Shared>,
    job_token: &str,
    spec: &JobSpec,
    fp: u64,
    cancel: &CancelToken,
    workers: usize,
) -> Result<SweepReport, ServeError> {
    let mut sweep_spec = spec.sweep.to_spec()?;

    // A resumed job keeps its finished scenarios in its record: re-run
    // only the rest. `retain` keeps the original indices and
    // per-scenario seeds, so the remaining rows are bit-identical to
    // what an uninterrupted run would produce.
    let done: HashSet<usize> = {
        let core = shared.core.lock().expect("serve core poisoned");
        core.jobs
            .get(job_token)
            .map(|r| r.partial.iter().map(|s| s.index).collect())
            .unwrap_or_default()
    };
    if !done.is_empty() {
        sweep_spec.retain(|s| !done.contains(&s.index()));
        if sweep_spec.is_empty() {
            // Every scenario finished before the suspension: nothing
            // is left to simulate, and `run_job` fills the report in
            // from the record.
            return Ok(SweepReport {
                metric_names: spec.metrics.iter().map(|m| m.name.clone()).collect(),
                monitor_names: spec.monitor_spec()?.map(|s| s.names()).unwrap_or_default(),
                scenarios: Vec::new(),
                exec: ams_exec::ExecStats::default(),
                trace: None,
                lanes: 1,
                bundles: 0,
                space_pruned: Vec::new(),
                prefix_forks: 0,
                prefix_steps: 0,
            });
        }
    }

    // Resolve the topology against the cache.
    let cached = {
        let mut core = shared.core.lock().expect("serve core poisoned");
        core.cache
            .lookup(fp)
            .map(|e| (e.built.clone(), e.lint_rejected.clone(), e.factor.clone()))
    };
    let (built, hint, cold) = match cached {
        Some((_, Some(msg), _)) => {
            return Err(ServeError::Failed(format!("lint rejected (cached): {msg}")));
        }
        Some((built, None, factor)) => (built, factor, false),
        None => {
            // Cold: elaborate and lint off-lock, then publish the
            // verdict (positive or negative) for every future job.
            let built = spec.circuit.build()?;
            let report = lint_circuit("serve", &built.circuit);
            let policy = LintPolicy::default();
            let denied = policy.denied(&report);
            let rejection = (!denied.is_empty()).then(|| {
                denied
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            });
            let mut core = shared.core.lock().expect("serve core poisoned");
            core.cache.count_lint_run();
            core.cache
                .insert(fp, CacheEntry::new(built.clone(), rejection.clone()));
            drop(core);
            if let Some(msg) = rejection {
                return Err(ServeError::Failed(format!("lint rejected: {msg}")));
            }
            (built, None, true)
        }
    };

    let prepared = spec.prepare_with(built)?;
    let progress: ams_sweep::ProgressFn = {
        let shared = shared.clone();
        let token = job_token.to_string();
        Arc::new(move |result: &ScenarioResult| {
            let mut core = shared.core.lock().expect("serve core poisoned");
            core.metrics.counter_add("serve.scenarios.completed", 1);
            for v in &result.verdicts {
                let name = match v {
                    ams_sweep::Verdict::Pass => "serve.monitor.pass",
                    ams_sweep::Verdict::Fail { .. } => "serve.monitor.fail",
                    ams_sweep::Verdict::Vacuous => "serve.monitor.vacuous",
                };
                core.metrics.counter_add(name, 1);
            }
            if let Some(rec) = core.jobs.get_mut(&token) {
                rec.events.push((result.index, result.metrics.clone()));
                rec.partial.push(result.clone());
            }
            drop(core);
            shared.cv.notify_all();
            #[cfg(test)]
            drop(shared.pace.lock());
        })
    };
    let sink: ams_sweep::FactorSink = Arc::new(Mutex::new(None));
    let result = prepared.run(
        &sweep_spec,
        workers,
        RunOpts {
            pre_linted: true,
            symbolic_hint: hint,
            cancel: Some(cancel.clone()),
            progress: Some(progress),
            factor_sink: cold.then(|| sink.clone()),
        },
    );

    // Publish the factor scenario 0 exported, even when the run was
    // later cancelled — the analysis is valid and paid for.
    if cold {
        if let Some(factor) = sink.lock().expect("factor sink poisoned").take() {
            let mut core = shared.core.lock().expect("serve core poisoned");
            core.cache.store_factor(fp, factor);
        }
    }
    result
}

/// Completes a finished run's report from the job record's streamed
/// scenarios: those the run did not produce — finished before a
/// suspension — join it in index order. The merged report is
/// indistinguishable, fingerprint included, from one uninterrupted run
/// over the whole sweep; a run that was never suspended is left as is.
fn merge_restored(report: &mut SweepReport, partial: Vec<ScenarioResult>) {
    if partial.len() == report.scenarios.len() {
        return;
    }
    let ran: HashSet<usize> = report.scenarios.iter().map(|s| s.index).collect();
    report
        .scenarios
        .extend(partial.into_iter().filter(|s| !ran.contains(&s.index)));
    report.scenarios.sort_by_key(|s| s.index);
    report.exec.windows = report.scenarios.len() as u64;
    report.exec.clusters = report
        .scenarios
        .iter()
        .map(|s| (s.label.clone(), s.stats))
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_mint_is_deterministic_per_seed_and_distinct() {
        let mut a = TokenMint::new(7);
        let mut b = TokenMint::new(7);
        let t1 = a.token("x");
        assert_eq!(t1, b.token("x"));
        assert_ne!(t1, a.token("x"));
        let mut c = TokenMint::new(8);
        assert_ne!(c.token("x"), t1);
    }

    #[test]
    fn end_to_end_submit_wait() {
        let handle = ServeHandle::start(ServeConfig {
            workers: 2,
            tenants: vec![TenantConfig::named("t")],
            ..ServeConfig::default()
        });
        let tenant = handle.tenant_token("t").unwrap();
        let job = handle.submit(&tenant, JobSpec::demo_rc(4, 3)).unwrap();
        let report = handle.wait(&tenant, &job).unwrap();
        assert_eq!(report.scenarios.len(), 4);
        let status = handle.status(&tenant, &job).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.completed, 4);
        // Streaming covered every scenario exactly once.
        let (events, _) = handle.poll(&tenant, &job, 0).unwrap();
        let mut idx: Vec<usize> = events.iter().map(|(i, _)| *i).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn authority_pairs_are_enforced() {
        let handle = ServeHandle::start(ServeConfig {
            workers: 1,
            tenants: vec![TenantConfig::named("a"), TenantConfig::named("b")],
            ..ServeConfig::default()
        });
        let ta = handle.tenant_token("a").unwrap();
        let tb = handle.tenant_token("b").unwrap();
        let job = handle.submit(&ta, JobSpec::demo_rc(2, 0)).unwrap();
        // Tenant b cannot address tenant a's job, even with the real
        // job token; nor do forged tokens resolve.
        assert!(matches!(handle.status(&tb, &job), Err(ServeError::Auth)));
        assert!(matches!(
            handle.status("tenant-feedbeef", &job),
            Err(ServeError::Auth)
        ));
        assert!(matches!(
            handle.status(&ta, "job-0000000000000000"),
            Err(ServeError::Auth)
        ));
        assert!(matches!(
            handle.register_tenant("admin-nope", TenantConfig::named("c")),
            Err(ServeError::Auth)
        ));
        assert!(handle.wait(&ta, &job).is_ok());
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn space_admission_rejects_doomed_boxes_and_caches_the_verdict() {
        use crate::model::SweepDecl;
        let handle = ServeHandle::start(ServeConfig {
            workers: 1,
            tenants: vec![TenantConfig::named("t")],
            ..ServeConfig::default()
        });
        let tenant = handle.tenant_token("t").unwrap();
        // Drive every stage resistance negative over the whole box: the
        // same defect the sweep gate proves `SPC001`, caught at submit.
        let mut doomed = JobSpec::demo_rc(2, 0);
        if let SweepDecl::MonteCarlo { params, .. } = &mut doomed.sweep {
            params[0] = ("dr".into(), -1.5, -1.2);
        }
        let err = handle.submit(&tenant, doomed.clone()).unwrap_err();
        match err {
            ServeError::Invalid(msg) => {
                assert!(msg.contains("SPC001"), "{msg}");
                assert!(msg.contains("witness"), "{msg}");
            }
            other => panic!("unexpected error {other}"),
        }
        // The resubmit replays the cached verdict (no second pass), and
        // a healthy job over the same topology is unaffected.
        assert!(matches!(
            handle.submit(&tenant, doomed),
            Err(ServeError::Invalid(_))
        ));
        let job = handle.submit(&tenant, JobSpec::demo_rc(2, 0)).unwrap();
        assert!(handle.wait(&tenant, &job).is_ok());
        let m = handle.metrics();
        assert_eq!(m.counter("serve.space.runs"), 2); // doomed + healthy
        assert_eq!(m.counter("serve.space.hits"), 1); // the resubmit
        assert_eq!(m.counter("serve.space.rejects"), 1);
        handle.shutdown();
        handle.join();
    }

    /// `demo_rc` with a 10× finer step. The tests that suspend or queue
    /// behind it hold it at a scenario boundary through `Shared::pace`,
    /// so its run time decides no outcome.
    fn slow_job(n: usize, seed: u64) -> JobSpec {
        let mut job = JobSpec::demo_rc(n, seed);
        job.h = 5e-9;
        job
    }

    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        for _ in 0..4000 {
            if cond() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    /// Submits `job`, holds it after its first scenario until the
    /// suspend request is in, and waits for it to park: the suspend
    /// always lands with scenarios left, however fast the job runs.
    fn suspended_mid_run(handle: &ServeHandle, tenant: &str, job: JobSpec) -> String {
        let pace = handle.shared.pace.lock().unwrap();
        let token = handle.submit(tenant, job).unwrap();
        wait_for("first scenario", || {
            handle.status(tenant, &token).unwrap().completed >= 1
        });
        handle.suspend(tenant, &token).unwrap();
        drop(pace);
        wait_for("suspension", || {
            let s = handle.status(tenant, &token).unwrap();
            assert!(
                !matches!(s.state, JobState::Done),
                "suspend raced job completion — slow_job is not slow enough"
            );
            s.state == JobState::Suspended
        });
        token
    }

    #[test]
    fn suspend_resume_reproduces_the_uninterrupted_fingerprint() {
        let handle = ServeHandle::start(ServeConfig {
            workers: 2,
            tenants: vec![TenantConfig::named("t")],
            ..ServeConfig::default()
        });
        let tenant = handle.tenant_token("t").unwrap();
        let spec = slow_job(32, 0xC0DE);
        let direct = spec.direct_run(2).unwrap();

        let job = suspended_mid_run(&handle, &tenant, spec);
        let status = handle.status(&tenant, &job).unwrap();
        assert!(status.completed >= 1 && status.completed < 32);
        let m = handle.metrics();
        assert_eq!(m.counter("serve.jobs.suspended"), 1);
        assert_eq!(m.counter("serve.checkpoint.stored"), 1);

        handle.resume(&tenant, &job).unwrap();
        let report = handle.wait(&tenant, &job).unwrap();
        assert_eq!(report.scenarios.len(), 32);
        assert_eq!(
            report.fingerprint(),
            direct.fingerprint(),
            "suspended+resumed job must be indistinguishable from an uninterrupted run"
        );
        // Labels and ordering survive the merge too.
        for (i, (got, want)) in report.scenarios.iter().zip(&direct.scenarios).enumerate() {
            assert_eq!(got.index, i);
            assert_eq!(got.label, want.label);
        }
        // The event stream covers every scenario exactly once.
        let (events, _) = handle.poll(&tenant, &job, 0).unwrap();
        let mut idx: Vec<usize> = events.iter().map(|(i, _)| *i).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..32).collect::<Vec<_>>());
        // The resume re-ran exactly the scenarios left at suspension.
        let m = handle.metrics();
        assert_eq!(m.counter("serve.checkpoint.restored"), 1);
        assert_eq!(
            m.counter("serve.checkpoint.scenarios_restored"),
            status.completed as u64
        );
        assert_eq!(
            m.counter("serve.scenarios.completed"),
            32,
            "no finished scenario ran twice"
        );
        assert_eq!(m.counter("serve.jobs.resumed"), 1);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn queued_jobs_suspend_in_place_and_cancel_discards_the_checkpoint() {
        // Tenant budget of 8 in-flight scenarios: while the 8-scenario
        // job A runs, job B deterministically sits queued. A is held at
        // its first scenario boundary until B's checks are done, so it
        // cannot finish (and free the budget) early.
        let handle = ServeHandle::start(ServeConfig {
            workers: 2,
            tenants: vec![TenantConfig {
                scenario_budget: 8,
                ..TenantConfig::named("t")
            }],
            ..ServeConfig::default()
        });
        let tenant = handle.tenant_token("t").unwrap();
        let pace = handle.shared.pace.lock().unwrap();
        let a = handle.submit(&tenant, slow_job(8, 1)).unwrap();
        wait_for("job a running", || {
            handle.status(&tenant, &a).unwrap().state == JobState::Running
        });
        let b = handle.submit(&tenant, JobSpec::demo_rc(8, 2)).unwrap();
        assert_eq!(handle.status(&tenant, &b).unwrap().state, JobState::Queued);

        handle.suspend(&tenant, &b).unwrap();
        assert_eq!(
            handle.status(&tenant, &b).unwrap().state,
            JobState::Suspended,
            "queued jobs park synchronously"
        );
        // Nothing kept for a job that never ran.
        assert_eq!(handle.metrics().counter("serve.checkpoint.stored"), 0);

        handle.cancel(&tenant, &b).unwrap();
        assert_eq!(
            handle.status(&tenant, &b).unwrap().state,
            JobState::Cancelled
        );
        assert!(matches!(
            handle.wait(&tenant, &b),
            Err(ServeError::Cancelled)
        ));
        drop(pace);
        assert!(handle.wait(&tenant, &a).is_ok());
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn resumed_then_cancelled_job_reaches_cancelled() {
        let handle = ServeHandle::start(ServeConfig {
            workers: 2,
            tenants: vec![TenantConfig::named("t")],
            ..ServeConfig::default()
        });
        let tenant = handle.tenant_token("t").unwrap();
        let job = suspended_mid_run(&handle, &tenant, slow_job(32, 5));
        handle.resume(&tenant, &job).unwrap();
        // Cancel right away: whether it lands while queued or running,
        // the restored job must end Cancelled, never Suspended.
        handle.cancel(&tenant, &job).unwrap();
        assert!(matches!(
            handle.wait(&tenant, &job),
            Err(ServeError::Cancelled)
        ));
        assert_eq!(
            handle.status(&tenant, &job).unwrap().state,
            JobState::Cancelled
        );
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn resume_rejects_jobs_that_are_not_suspended() {
        let handle = ServeHandle::start(ServeConfig {
            workers: 2,
            tenants: vec![TenantConfig::named("t")],
            ..ServeConfig::default()
        });
        let tenant = handle.tenant_token("t").unwrap();
        let job = handle.submit(&tenant, JobSpec::demo_rc(2, 0)).unwrap();
        handle.wait(&tenant, &job).unwrap();
        assert!(matches!(
            handle.resume(&tenant, &job),
            Err(ServeError::Invalid(_))
        ));
        // Suspending a done job is a harmless no-op.
        handle.suspend(&tenant, &job).unwrap();
        assert_eq!(handle.status(&tenant, &job).unwrap().state, JobState::Done);
        // Authority still gates both verbs.
        assert!(matches!(
            handle.resume("tenant-feedbeef", &job),
            Err(ServeError::Auth)
        ));
        assert!(matches!(
            handle.suspend("tenant-feedbeef", &job),
            Err(ServeError::Auth)
        ));
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn monitored_job_reports_verdicts_and_counters() {
        let handle = ServeHandle::start(ServeConfig {
            workers: 2,
            tenants: vec![TenantConfig::named("t")],
            ..ServeConfig::default()
        });
        let tenant = handle.tenant_token("t").unwrap();
        let spec = JobSpec::demo_rc_monitored(8, 3);
        let job = handle.submit(&tenant, spec.clone()).unwrap();
        let report = handle.wait(&tenant, &job).unwrap();
        assert_eq!(
            report.monitor_names,
            vec!["bounded".to_string(), "over".into(), "settled".into()]
        );
        for sc in &report.scenarios {
            assert_eq!(sc.verdicts.len(), 3, "every scenario carries a verdict row");
        }
        // Live counts agree with the finished report.
        let status = handle.status(&tenant, &job).unwrap();
        let m = status.monitors.expect("monitored job exposes counts");
        assert_eq!(m.pass + m.fail + m.vacuous, 8 * 3);
        let mut want = MonitorCounts::default();
        for sc in &report.scenarios {
            for v in &sc.verdicts {
                want.add(v);
            }
        }
        assert_eq!(m, want);
        // The RC ladder never leaves [lo, hi] nor overshoots a 1 V
        // pulse, so those two properties pass in every scenario.
        assert!(m.pass >= 16, "envelope+overshoot pass everywhere: {m:?}");
        let metrics = handle.metrics();
        assert_eq!(metrics.counter("serve.monitor.jobs"), 1);
        assert_eq!(
            metrics.counter("serve.monitor.pass")
                + metrics.counter("serve.monitor.fail")
                + metrics.counter("serve.monitor.vacuous"),
            8 * 3
        );
        // Verdicts are deterministic across worker counts.
        assert_eq!(
            spec.direct_run(1).unwrap().fingerprint(),
            spec.direct_run(4).unwrap().fingerprint()
        );
        assert_eq!(
            report.fingerprint(),
            spec.direct_run(1).unwrap().fingerprint()
        );
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn monitored_suspend_resume_keeps_verdicts_and_fingerprint() {
        let handle = ServeHandle::start(ServeConfig {
            workers: 2,
            tenants: vec![TenantConfig::named("t")],
            ..ServeConfig::default()
        });
        let tenant = handle.tenant_token("t").unwrap();
        let mut spec = JobSpec::demo_rc_monitored(24, 0xBEEF);
        spec.h = 5e-9; // slow_job pacing, monitored
        let direct = spec.direct_run(2).unwrap();

        let job = suspended_mid_run(&handle, &tenant, spec);
        // The record already carries verdict counts for the completed
        // prefix.
        let status = handle.status(&tenant, &job).unwrap();
        let mid = status.monitors.expect("suspended monitored job");
        assert_eq!(
            mid.pass + mid.fail + mid.vacuous,
            status.completed as u64 * 3
        );

        handle.resume(&tenant, &job).unwrap();
        let report = handle.wait(&tenant, &job).unwrap();
        assert_eq!(
            report.fingerprint(),
            direct.fingerprint(),
            "restored verdicts must match an uninterrupted monitored run"
        );
        for (got, want) in report.scenarios.iter().zip(&direct.scenarios) {
            assert_eq!(got.verdicts, want.verdicts);
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn bad_monitor_specs_are_rejected_at_submit() {
        let handle = ServeHandle::start(ServeConfig {
            workers: 1,
            tenants: vec![TenantConfig::named("t")],
            ..ServeConfig::default()
        });
        let tenant = handle.tenant_token("t").unwrap();
        let mut garbled = JobSpec::demo_rc(2, 0);
        garbled.monitors = Some("p:settle(lo=".into());
        match handle.submit(&tenant, garbled) {
            Err(ServeError::Invalid(msg)) => assert!(msg.contains("monitor spec"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        let mut dangling = JobSpec::demo_rc(2, 0);
        dangling.monitors = Some("p:finite()@n99".into());
        match handle.submit(&tenant, dangling) {
            Err(ServeError::Invalid(msg)) => assert!(msg.contains("n99"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        // Rejection happens before admission: nothing was queued.
        assert_eq!(handle.metrics().counter("serve.jobs.submitted"), 0);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn draining_rejects_new_work_and_finishes_old() {
        let handle = ServeHandle::start(ServeConfig {
            workers: 1,
            tenants: vec![TenantConfig::named("t")],
            ..ServeConfig::default()
        });
        let tenant = handle.tenant_token("t").unwrap();
        let job = handle.submit(&tenant, JobSpec::demo_rc(3, 9)).unwrap();
        handle.shutdown();
        assert!(matches!(
            handle.submit(&tenant, JobSpec::demo_rc(1, 0)),
            Err(ServeError::Shutdown)
        ));
        // The pre-drain job still completes.
        assert!(handle.wait(&tenant, &job).is_ok());
        handle.join();
    }
}
