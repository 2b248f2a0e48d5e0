//! The parallel experiment engine: a scoped-thread worker pool over a job
//! graph of `(profile, machine)` simulations, plus a [`SuiteCache`] so no
//! identical suite is ever simulated twice in one process.
//!
//! # Why this exists
//!
//! The paper's methodology already collapses the *configuration* axis: one
//! simulation pass with a bank of bystander filters yields results for
//! every configuration at once. What remains is the *application* axis —
//! ten independent suite members per run, and `jetty-repro all` needs
//! several suites (the 4-way base run, the 8-way run, the non-subblocked
//! run, and two ablation banks).
//!
//! Filters are bystanders, so suites that differ only in their banks
//! simulate the same machine: the base suite and both ablation banks are
//! one 4-way MOESI subblocked machine. The job graph is therefore keyed
//! by machine ([`RunOptions::machine`]): each batch's suites are grouped
//! by machine key, every `(application, machine)` pair runs once with the
//! deduplicated union of the grouped banks, and each requested suite is
//! then served its own runs, with its reports in its own bank order.
//! `all`'s five suites are three machines and 30 jobs. Every job is a
//! pure function of `(profile, machine, bank)`, so the jobs are
//! embarrassingly parallel; the engine flattens them into one job list
//! and drains it with a fixed pool of scoped threads.
//!
//! # Determinism
//!
//! A job's result depends only on its inputs — [`TraceGen`] is a pure
//! function of `(profile, cpus, scale)` and [`System`] of the trace and
//! options — so execution order cannot change any result. A filter's
//! report does not depend on the other filters in its bank, so a suite
//! served from a union bank gets exactly the reports it would get alone.
//! Jobs write into pre-assigned slots and suites are reassembled in
//! application order, so the output is byte-identical at every worker
//! count; with one worker the jobs simply run one after another in job
//! order.
//!
//! # Failure model
//!
//! Jobs are fallible: [`Engine::run_suites`] returns one
//! `Result<Arc<Vec<AppRun>>, JettyError>` per request, so one bad suite
//! degrades that suite instead of the whole batch. A job can fail by
//! injected fault ([`crate::fault`]), by blowing its deadline
//! ([`Engine::with_deadline`], checked at chunk boundaries through a
//! [`RunGate`]), or by panicking — panics are caught per job (in unwind
//! builds; the release profile aborts by design) and reported through the
//! job's result slot. A job serves every suite of its machine, so a
//! fault aimed at any of those suites, a deadline expiry or a panic fails
//! the job for all of them, and each failed suite is reported under its
//! own [`RunOptions::id`]. When any job of a machine fails, the machine's
//! shared cancellation flag stops its sibling jobs at their next chunk
//! boundary: their partial results could never be used. Failed suites
//! are never inserted into the [`SuiteCache`] — only complete suites are cached —
//! but the *error* is memoized, so a doomed configuration is attempted
//! once per process, not once per consumer. Lock poisoning degrades too:
//! every engine mutex guards data that is structurally valid mid-panic
//! (whole inserted values), so a poisoned lock is recovered, not
//! propagated.
//!
//! # Caching
//!
//! [`RunOptions`] is the cache key (hash/eq over the machine key — `cpus`,
//! `scale` bits, `check`, `non_subblocked`, and the coherence `protocol`
//! — and the full filter bank). Consumers ask for whole suites;
//! [`Engine::run_suites`] coalesces duplicate requests, simulates only
//! the missing ones, and hands out shared [`Arc`] results — which is what
//! lets the declarative sweep grid ([`crate::sweep`]) render every grid
//! point from cache after one prefetch batch.
//!
//! [`TraceGen`]: jetty_workloads::TraceGen
//! [`System`]: jetty_sim::System
//! [`RunGate`]: jetty_sim::RunGate

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use jetty_sim::RunGate;
use jetty_workloads::apps;

use crate::error::JettyError;
use crate::runner::{run_app_serving, AppRun, AppTiming, RunOptions};

/// One finished-or-failed suite, as returned by [`Engine::run_suites`].
pub type SuiteResult = Result<Arc<Vec<AppRun>>, JettyError>;

/// Locks a mutex, recovering from poisoning: every engine mutex guards
/// data that stays structurally valid across a worker panic (values are
/// inserted whole), so the guard's contents are safe to reuse and a
/// poisoned lock must degrade to normal operation, not cascade the panic.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shared, thread-safe cache of finished suite runs, keyed by the full
/// [`RunOptions`] (bank included). Only *complete* suites are ever
/// inserted, and poisoned locks are recovered (see the module's failure
/// model), so the cache cannot hold a partial result.
///
/// # Examples
///
/// ```
/// use jetty_experiments::engine::SuiteCache;
/// use jetty_experiments::RunOptions;
///
/// let cache = SuiteCache::new();
/// assert!(cache.get(&RunOptions::paper()).is_none());
/// assert_eq!(cache.len(), 0);
/// ```
#[derive(Debug, Default)]
pub struct SuiteCache {
    map: Mutex<HashMap<RunOptions, Arc<Vec<AppRun>>>>,
}

impl SuiteCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a finished suite for exactly these options.
    pub fn get(&self, options: &RunOptions) -> Option<Arc<Vec<AppRun>>> {
        lock_recover(&self.map).get(options).cloned()
    }

    /// Stores a finished suite under its options, keeping the first
    /// insertion canonical: if another thread raced the same key in, its
    /// result wins and is returned, so every holder of this key ends up
    /// sharing one allocation.
    pub fn insert(&self, options: RunOptions, runs: Arc<Vec<AppRun>>) -> Arc<Vec<AppRun>> {
        lock_recover(&self.map).entry(options).or_insert(runs).clone()
    }

    /// Number of cached suites.
    pub fn len(&self) -> usize {
        lock_recover(&self.map).len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Monotonic counters describing what an [`Engine`] has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Suites actually simulated to completion (cache misses).
    pub suites_executed: u64,
    /// Suite requests served from the cache (or coalesced with an
    /// identical request in the same batch, or answered from the
    /// memoized error of an earlier failed attempt).
    pub cache_hits: u64,
    /// Individual `(profile, machine)` simulation jobs attempted: one per
    /// application per machine, however many suites the machine serves.
    pub jobs_executed: u64,
    /// Suites whose execution failed (fault, deadline, or worker death);
    /// their errors are memoized, never their partial results.
    pub suites_failed: u64,
}

impl EngineStats {
    /// Cache hits as a fraction of all suite requests served so far, in
    /// `[0, 1]` (0 when nothing has been requested yet). The number the
    /// `jetty-repro sweep` stderr summary and the bench baseline report.
    pub fn hit_rate(&self) -> f64 {
        let requests = self.cache_hits + self.suites_executed + self.suites_failed;
        if requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / requests as f64
        }
    }
}

/// One simulated machine of a batch: the requested suites that share a
/// [`MachineKey`](crate::runner::MachineKey), run as one simulation per
/// application with the union of their banks.
struct Machine {
    /// The shared machine, carrying the union bank (first-seen order,
    /// duplicates dropped).
    options: RunOptions,
    /// The requested suites this machine serves.
    served: Vec<RunOptions>,
    /// Per served suite: its index in the batch, and where each of its
    /// specs sits in the union bank.
    picks: Vec<(usize, Vec<usize>)>,
}

impl Machine {
    /// Groups `suites` by machine key, in first-seen order.
    fn plan(suites: &[RunOptions]) -> Vec<Machine> {
        let mut machines: Vec<Machine> = Vec::new();
        for (index, suite) in suites.iter().enumerate() {
            let key = suite.machine();
            let m = machines.iter().position(|m| m.options.machine() == key).unwrap_or_else(|| {
                let options = suite.clone().with_specs(Vec::new());
                machines.push(Machine { options, served: Vec::new(), picks: Vec::new() });
                machines.len() - 1
            });
            let machine = &mut machines[m];
            let union = &mut machine.options.specs;
            let picks = suite
                .specs
                .iter()
                .map(|spec| {
                    union.iter().position(|s| s == spec).unwrap_or_else(|| {
                        union.push(*spec);
                        union.len() - 1
                    })
                })
                .collect();
            machine.served.push(suite.clone());
            machine.picks.push((index, picks));
        }
        machines
    }
}

/// One `(application, machine)` simulation job in a batch's flattened graph.
#[derive(Clone, Copy)]
struct Job {
    machine: usize,
    app: usize,
}

/// What one job deposits in its slot: its outcome plus wall-clock.
type JobOutcome = (Result<(AppRun, AppTiming), JettyError>, Duration);

/// Wall-clock attribution for one *executed* machine (the cache-missing
/// suites of a batch that share a machine key): the summed wall-clock of
/// its ten application jobs. Jobs of one machine may run on different
/// workers, so this is cpu-time-like — with one worker it equals the
/// machine's wall-clock exactly.
#[derive(Clone, Debug)]
pub struct SuiteTiming {
    /// The options the machine ran under, with the union bank of the
    /// suites it served.
    pub options: RunOptions,
    /// Summed per-job wall-clock.
    pub elapsed: Duration,
    /// Jobs executed (one per application).
    pub jobs: usize,
    /// Time the jobs spent generating trace chunks (summed across jobs;
    /// part of `elapsed`).
    pub gen: Duration,
    /// Time the jobs spent simulating those chunks (summed across jobs;
    /// part of `elapsed`).
    pub sim: Duration,
}

/// The worker-pool executor. Built once per process with a fixed thread
/// count; hand it [`RunOptions`] batches and it returns per-suite results
/// in request order.
///
/// # Examples
///
/// ```
/// use jetty_core::FilterSpec;
/// use jetty_experiments::engine::Engine;
/// use jetty_experiments::RunOptions;
///
/// let engine = Engine::new(2);
/// let options = RunOptions::paper()
///     .with_scale(0.001)
///     .with_specs(vec![FilterSpec::exclude(8, 2)]);
/// let suite = engine.run_suite(&options).expect("fault-free run");
/// assert_eq!(suite.len(), 10);
/// // A second identical request is a cache hit: same allocation.
/// let again = engine.run_suite(&options).expect("cache hit");
/// assert!(std::sync::Arc::ptr_eq(&suite, &again));
/// ```
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    /// Per-job wall-clock budget; `None` = unbounded.
    deadline: Option<Duration>,
    cache: SuiteCache,
    /// Memoized errors of failed suites: one attempt per key per process.
    failed: Mutex<HashMap<RunOptions, JettyError>>,
    suites_executed: AtomicU64,
    cache_hits: AtomicU64,
    jobs_executed: AtomicU64,
    suites_failed: AtomicU64,
    /// Per-suite timings accumulated since the last [`Engine::take_timings`]
    /// (completed suites only; cache hits and failures record nothing).
    timings: Mutex<Vec<SuiteTiming>>,
}

impl Engine {
    /// Builds an engine with a fixed worker count and no job deadline.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "the engine needs at least one worker thread");
        Self {
            threads,
            deadline: None,
            cache: SuiteCache::new(),
            failed: Mutex::new(HashMap::new()),
            suites_executed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            jobs_executed: AtomicU64::new(0),
            suites_failed: AtomicU64::new(0),
            timings: Mutex::new(Vec::new()),
        }
    }

    /// Sets the per-job wall-clock budget (`None` = unbounded). Checked
    /// cooperatively at chunk boundaries, so expiry cancels a job within
    /// one chunk's worth of work and surfaces as
    /// [`JettyError::Deadline`] for its suite.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The default worker count: the host's available parallelism, or 1
    /// when that cannot be determined (logged once per process, since
    /// silently dropping to a single worker on a big host is worth knowing
    /// about).
    pub fn default_threads() -> usize {
        let available = thread::available_parallelism().ok().map(NonZeroUsize::get);
        let (threads, host_fallback) = host_threads(available);
        if host_fallback {
            static FALLBACK_WARNING: Once = Once::new();
            FALLBACK_WARNING.call_once(|| {
                eprintln!(
                    "warning: could not determine available parallelism; \
                     defaulting to 1 worker thread (pass --threads to override)"
                );
            });
        }
        threads
    }

    /// Returns the engine unchanged. It exists only because the
    /// reproduction benchmark (`perfbench/src/main.rs`) builds its engines
    /// as `Engine::new(n).with_shards(Engine::default_shards())`; it goes
    /// away with those calls at the benchmark's next change.
    #[doc(hidden)]
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Always 1; the other half of the [`Engine::with_shards`] shim kept
    /// for the reproduction benchmark.
    #[doc(hidden)]
    pub fn default_shards() -> usize {
        1
    }

    /// The worker count this engine was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The per-job deadline this engine applies, when one is set.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The suite cache (for inspection; normal use goes through
    /// [`Engine::run_suite`]).
    pub fn cache(&self) -> &SuiteCache {
        &self.cache
    }

    /// Drains the per-suite timings accumulated since the last call (the
    /// `jetty-repro --timings` surface). Completed suites only: cache
    /// hits and failed suites record no timing.
    pub fn take_timings(&self) -> Vec<SuiteTiming> {
        std::mem::take(&mut *lock_recover(&self.timings))
    }

    /// Counters so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            suites_executed: self.suites_executed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            suites_failed: self.suites_failed.load(Ordering::Relaxed),
        }
    }

    /// The memoized error of an earlier failed attempt at these options.
    fn failed_error(&self, options: &RunOptions) -> Option<JettyError> {
        lock_recover(&self.failed).get(options).cloned()
    }

    /// Runs (or fetches from cache) one full ten-application suite.
    pub fn run_suite(&self, options: &RunOptions) -> SuiteResult {
        self.run_suites(std::slice::from_ref(options))
            .pop()
            .unwrap_or_else(|| unreachable!("run_suites returns one result per request"))
    }

    /// Runs a batch of suites concurrently, returning per-suite results in
    /// request order.
    ///
    /// Requests already in the cache are served from it; duplicate
    /// requests within the batch are coalesced. Everything left is grouped
    /// by machine and flattened into one `(profile, machine)` job list
    /// drained by the worker pool, so the 4-way, 8-way, non-subblocked and
    /// ablation suites of `jetty-repro all` share a single pool, and the
    /// three suites of the 4-way machine share its simulations.
    ///
    /// A failed suite comes back as `Err` without disturbing the suites of
    /// other machines (the suites of its own machine share its jobs and
    /// fail with it); the error is memoized so later requests for the same
    /// key are answered without re-running a doomed configuration (one
    /// attempt per key per process — the cache itself only ever holds
    /// complete suites).
    ///
    /// The single-execution guarantee is per caller: if *external* threads
    /// share one engine and race identical requests, both may simulate,
    /// but the cache keeps the first finished result canonical, so every
    /// caller still receives the same `Arc` (results are deterministic
    /// either way — only work is duplicated).
    pub fn run_suites(&self, requests: &[RunOptions]) -> Vec<SuiteResult> {
        let mut fresh: Vec<RunOptions> = Vec::new();
        for options in requests {
            if self.cache.get(options).is_some()
                || self.failed_error(options).is_some()
                || fresh.contains(options)
            {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                fresh.push(options.clone());
            }
        }

        for (options, result) in fresh.iter().zip(self.execute(&fresh)) {
            match result {
                Ok(runs) => {
                    self.cache.insert(options.clone(), Arc::new(runs));
                    self.suites_executed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    lock_recover(&self.failed).insert(options.clone(), e);
                    self.suites_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // `get` after canonicalising `insert`: every caller of a key sees
        // one shared allocation, even if external threads raced us.
        requests
            .iter()
            .map(|options| match self.cache.get(options) {
                Some(runs) => Ok(runs),
                None => Err(self.failed_error(options).unwrap_or_else(|| {
                    JettyError::simulation(
                        options.id(),
                        "suite neither cached nor failed after execution (engine bug)",
                    )
                })),
            })
            .collect()
    }

    /// Runs one suite through the worker pool without consulting or
    /// filling the cache (the engine-backed replacement for the historical
    /// sequential [`run_suite`](crate::runner::run_suite)).
    pub fn run_suite_uncached(&self, options: &RunOptions) -> Result<Vec<AppRun>, JettyError> {
        self.execute(std::slice::from_ref(options))
            .pop()
            .unwrap_or_else(|| unreachable!("execute returns one result per suite"))
    }

    /// Executes the job graph for `suites`, returning each suite's runs in
    /// application order (or its first meaningful error) and logging one
    /// [`SuiteTiming`] per completed machine.
    ///
    /// Suites that share a machine key run as one job per application
    /// with the union of their banks ([`Machine::plan`]); each suite then
    /// gets its own runs, with its reports in its own bank order. A
    /// failed job fails every suite its machine serves, each under its
    /// own id.
    fn execute(&self, suites: &[RunOptions]) -> Vec<Result<Vec<AppRun>, JettyError>> {
        if suites.is_empty() {
            return Vec::new();
        }
        let profiles = apps::all();
        let machines = Machine::plan(suites);
        let jobs: Vec<Job> = (0..machines.len())
            .flat_map(|machine| (0..profiles.len()).map(move |app| Job { machine, app }))
            .collect();

        // One cancellation flag per machine: the first failing job raises
        // its machine's flag, and sibling jobs observe it at their next
        // chunk boundary (their partial results could never be used).
        let cancels: Vec<Arc<AtomicBool>> =
            machines.iter().map(|_| Arc::new(AtomicBool::new(false))).collect();
        let run_job = |job: &Job| -> JobOutcome {
            let started = Instant::now();
            let machine = &machines[job.machine];
            let gate = match self.deadline {
                Some(budget) => RunGate::with_budget(budget),
                None => RunGate::unbounded(),
            }
            .with_cancel(Arc::clone(&cancels[job.machine]));
            // Panics are contained per job in unwind builds (tests, dev);
            // the release profile aborts on panic by design, so there a
            // panic remains what it always was: a process-fatal bug.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_app_serving(&profiles[job.app], &machine.options, &machine.served, &gate)
            }))
            .unwrap_or_else(|payload| {
                Err(JettyError::simulation(
                    machine.options.id(),
                    format!("worker panicked: {}", panic_message(payload.as_ref())),
                ))
            });
            if result.is_err() {
                cancels[job.machine].store(true, Ordering::Relaxed);
            }
            (result, started.elapsed())
        };

        // Workers claim jobs through a shared atomic cursor and deposit
        // outcomes into the slot matching the job index, so assembly order
        // is independent of completion order.
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<JobOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
        thread::scope(|scope| {
            for _ in 0..self.threads.min(jobs.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let _ = slots[i].set(run_job(job));
                });
            }
        });
        // `thread::scope` re-raises a worker panic that escaped
        // `catch_unwind`, so every slot is filled once it returns.
        let outcomes = slots.into_iter().map(|slot| {
            slot.into_inner().unwrap_or_else(|| unreachable!("a finished scope fills every slot"))
        });
        self.jobs_executed.fetch_add(jobs.len() as u64, Ordering::Relaxed);

        let mut runs: Vec<Result<Vec<AppRun>, JettyError>> =
            machines.iter().map(|_| Ok(Vec::new())).collect();
        let mut timings: Vec<SuiteTiming> = machines
            .iter()
            .map(|m| SuiteTiming {
                options: m.options.clone(),
                elapsed: Duration::ZERO,
                jobs: profiles.len(),
                gen: Duration::ZERO,
                sim: Duration::ZERO,
            })
            .collect();
        for (job, (outcome, took)) in jobs.iter().zip(outcomes) {
            let timing = &mut timings[job.machine];
            timing.elapsed += took;
            match outcome {
                Ok((run, split)) => {
                    timing.gen += split.gen;
                    timing.sim += split.sim;
                    if let Ok(runs) = &mut runs[job.machine] {
                        runs.push(run);
                    }
                }
                Err(e) => {
                    // First meaningful error wins: a Cancelled job only
                    // ever follows some other job's failure, so it never
                    // displaces the root cause.
                    let slot = &mut runs[job.machine];
                    let replace = match slot {
                        Ok(_) => true,
                        Err(JettyError::Cancelled { .. }) => {
                            !matches!(e, JettyError::Cancelled { .. })
                        }
                        Err(_) => false,
                    };
                    if replace {
                        *slot = Err(e);
                    }
                }
            }
        }

        let mut out: Vec<Result<Vec<AppRun>, JettyError>> =
            suites.iter().map(|_| Ok(Vec::new())).collect();
        let mut log = lock_recover(&self.timings);
        for ((machine, runs), timing) in machines.iter().zip(runs).zip(timings) {
            if runs.is_ok() {
                log.push(timing);
            }
            for (suite, (index, picks)) in machine.served.iter().zip(&machine.picks) {
                out[*index] = match &runs {
                    Ok(runs) => Ok(runs.iter().map(|run| run.serve(picks)).collect()),
                    Err(e) => Err(e.clone().for_suite(&suite.id())),
                };
            }
        }
        out
    }
}

/// Best-effort text of a caught panic payload (`&str` or `String`
/// payloads cover `panic!` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The worker count for a host reporting `available` parallelism, and
/// whether it fell back to 1 because the host could not say (pure, so the
/// fallback is unit-testable without depending on the host).
fn host_threads(available: Option<usize>) -> (usize, bool) {
    match available {
        Some(n) => (n, false),
        None => (1, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetty_core::FilterSpec;

    /// Tiny bank + short traces so the whole module tests in seconds.
    fn quick(scale: f64) -> RunOptions {
        RunOptions::paper()
            .with_scale(scale)
            .with_specs(vec![FilterSpec::exclude(8, 2), FilterSpec::include(6, 5, 6)])
    }

    #[test]
    fn identical_options_run_the_suite_exactly_once() {
        let engine = Engine::new(2);
        let first = engine.run_suite(&quick(0.002)).unwrap();
        let second = engine.run_suite(&quick(0.002)).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second request must be served from cache");
        let stats = engine.stats();
        assert_eq!(stats.suites_executed, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.jobs_executed, 10);
        assert_eq!(stats.suites_failed, 0);
        assert_eq!(engine.cache().len(), 1);
        assert_eq!(stats.hit_rate(), 0.5, "one hit out of two requests");
    }

    #[test]
    fn hit_rate_of_an_idle_engine_is_zero() {
        assert_eq!(EngineStats::default().hit_rate(), 0.0);
        let all_hits = EngineStats { cache_hits: 3, ..EngineStats::default() };
        assert_eq!(all_hits.hit_rate(), 1.0);
        let with_failures =
            EngineStats { cache_hits: 1, suites_failed: 1, ..EngineStats::default() };
        assert_eq!(with_failures.hit_rate(), 0.5, "failed attempts count as requests");
    }

    #[test]
    fn batch_coalesces_duplicates_like_the_all_command() {
        // `all` asks for the base suite once per consumer; the batch must
        // still simulate it once.
        let engine = Engine::new(2);
        let options = quick(0.002);
        let results = engine.run_suites(&[options.clone(), options.clone(), options]);
        assert_eq!(results.len(), 3);
        let results: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        assert!(Arc::ptr_eq(&results[0], &results[1]));
        assert!(Arc::ptr_eq(&results[1], &results[2]));
        assert_eq!(engine.stats().suites_executed, 1);
        assert_eq!(engine.stats().cache_hits, 2);
    }

    #[test]
    fn differing_cpus_and_l2_variant_miss_the_cache() {
        let engine = Engine::new(2);
        let base = quick(0.002);
        let eight_way = base.clone().with_cpus(8);
        let mut nsb = base.clone();
        nsb.non_subblocked = true;
        engine.run_suites(&[base, eight_way, nsb]);
        let stats = engine.stats();
        assert_eq!(stats.suites_executed, 3, "each variant is a distinct key");
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(engine.cache().len(), 3);
    }

    #[test]
    fn differing_protocols_miss_the_cache() {
        use jetty_sim::ProtocolKind;
        let engine = Engine::new(2);
        let suites: Vec<RunOptions> =
            ProtocolKind::ALL.iter().map(|&p| quick(0.002).with_protocol(p)).collect();
        engine.run_suites(&suites);
        assert_eq!(engine.stats().suites_executed, 3, "each protocol is a distinct key");
        assert_eq!(engine.cache().len(), 3);
        // MOESI is the default: an explicit MOESI request hits the same key.
        assert!(Arc::ptr_eq(
            &engine.run_suite(&quick(0.002)).unwrap(),
            &engine.run_suite(&suites[0]).unwrap()
        ));
    }

    #[test]
    fn differing_scale_check_and_bank_miss_the_cache() {
        let engine = Engine::new(1);
        let base = quick(0.002);
        let mut checked = base.clone();
        checked.check = true;
        let rescaled = base.clone().with_scale(0.004);
        let rebanked = base.clone().with_specs(vec![FilterSpec::exclude(8, 2)]);
        engine.run_suites(&[base, checked, rescaled, rebanked]);
        assert_eq!(engine.stats().suites_executed, 4);
    }

    #[test]
    fn parallel_results_match_serial_in_order_and_content() {
        let options = quick(0.004);
        let serial = Engine::new(1).run_suite(&options).unwrap();
        let parallel = Engine::new(4).run_suite(&options).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.profile.abbrev, p.profile.abbrev, "application order must be preserved");
            assert_eq!(s.refs, p.refs);
            assert_eq!(s.run, p.run);
            assert_eq!(s.reports.len(), p.reports.len());
            for (sr, pr) in s.reports.iter().zip(p.reports.iter()) {
                assert_eq!(sr.label, pr.label);
                assert_eq!(sr.filtered, pr.filtered);
                assert_eq!(sr.would_miss, pr.would_miss);
                assert_eq!(sr.activities, pr.activities);
            }
        }
    }

    /// The five suites `jetty-repro all` prefetches, in its order.
    fn all_suites(scale: f64) -> Vec<RunOptions> {
        let suite = |cpus: usize, nsb: bool| {
            RunOptions::paper().with_scale(scale).with_cpus(cpus).with_non_subblocked(nsb)
        };
        vec![
            suite(4, false),
            suite(8, false),
            suite(4, true),
            crate::ablation::ij_skip_options(scale, false),
            crate::ablation::hj_policy_options(scale, false),
        ]
    }

    fn assert_same_runs(got: &[AppRun], want: &[AppRun], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.iter().zip(want) {
            let app = w.profile.abbrev;
            assert_eq!(g.profile.abbrev, app, "{what}");
            assert_eq!((g.refs, g.footprint), (w.refs, w.footprint), "{what}: {app}");
            assert_eq!(g.run, w.run, "{what}: {app}");
            assert_eq!(g.reports.len(), w.reports.len(), "{what}: {app}");
            for (gr, wr) in g.reports.iter().zip(&w.reports) {
                let label = &wr.label;
                assert_eq!(gr.label, wr.label, "{what}: {app}: bank order");
                assert_eq!(gr.spec, wr.spec, "{what}: {app}");
                assert_eq!((gr.probes, gr.filtered), (wr.probes, wr.filtered), "{label}");
                assert_eq!(gr.would_miss, wr.would_miss, "{what}: {app}: {label}");
                assert_eq!(gr.activities, wr.activities, "{what}: {app}: {label}");
                assert_eq!(gr.arrays, wr.arrays, "{what}: {app}: {label}");
                assert_eq!(gr.storage_bits, wr.storage_bits, "{what}: {app}: {label}");
            }
        }
    }

    #[test]
    fn all_prefetch_simulates_three_machines_and_serves_each_suite_alone() {
        let engine = Engine::new(2);
        let suites = all_suites(0.002);
        let results = engine.run_suites(&suites);
        let stats = engine.stats();
        assert_eq!(stats.jobs_executed, 30, "3 machines x 10 applications, not 5 x 10");
        assert_eq!(stats.suites_executed, 5, "every requested suite is served");
        let timings = engine.take_timings();
        let banks: Vec<usize> = timings.iter().map(|t| t.options.specs.len()).collect();
        assert_eq!(banks, [27, 22, 22], "the 4-way union: paper bank + 4 IJ skips + eager HJ");
        for (suite, result) in suites.iter().zip(results) {
            let alone = Engine::new(1).run_suite_uncached(suite).unwrap();
            assert_same_runs(&result.unwrap(), &alone, &suite.id());
        }
    }

    #[test]
    fn a_suite_with_repeated_specs_gets_one_report_per_spec() {
        let spec = FilterSpec::include(6, 5, 6);
        let repeated = quick(0.002).with_specs(vec![spec, FilterSpec::exclude(8, 2), spec]);
        let engine = Engine::new(2);
        let results = engine.run_suites(&[quick(0.002), repeated.clone()]);
        assert_eq!(engine.stats().jobs_executed, 10);
        let alone = Engine::new(1).run_suite_uncached(&repeated).unwrap();
        assert_same_runs(results[1].as_ref().unwrap(), &alone, "repeated specs");
    }

    #[test]
    fn a_failed_machine_fails_every_suite_it_serves_under_its_own_id() {
        let engine = Engine::new(2).with_deadline(Some(Duration::ZERO));
        let suites = [quick(0.002), quick(0.002).with_specs(vec![FilterSpec::include(8, 4, 7)])];
        let results = engine.run_suites(&suites);
        for (suite, result) in suites.iter().zip(results) {
            let err = result.unwrap_err();
            assert_eq!(err.suite(), Some(suite.id().as_str()), "{err}");
        }
        let stats = engine.stats();
        assert_eq!((stats.jobs_executed, stats.suites_failed), (10, 2));
        assert!(engine.take_timings().is_empty(), "a failed machine records no timing");
    }

    #[test]
    fn uncached_runs_do_not_touch_the_cache() {
        let engine = Engine::new(2);
        let runs = engine.run_suite_uncached(&quick(0.002)).unwrap();
        assert_eq!(runs.len(), 10);
        assert!(engine.cache().is_empty());
        assert_eq!(engine.stats().suites_executed, 0);
        assert_eq!(engine.stats().jobs_executed, 10);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let engine = Engine::new(64);
        assert_eq!(engine.run_suite(&quick(0.002)).unwrap().len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        let _ = Engine::new(0);
    }

    #[test]
    fn unknown_parallelism_falls_back_to_one_and_says_so() {
        assert_eq!(host_threads(None), (1, true));
    }

    #[test]
    fn no_override_uses_host_parallelism() {
        assert_eq!(host_threads(Some(12)), (12, false));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(Engine::default_threads() >= 1);
    }

    #[test]
    fn an_expired_deadline_fails_the_suite_without_touching_the_cache() {
        for threads in [1, 3] {
            let engine = Engine::new(threads).with_deadline(Some(Duration::ZERO));
            let err = engine.run_suite(&quick(0.002)).unwrap_err();
            assert!(
                matches!(
                    err,
                    JettyError::Deadline { budget_ms: 0, .. } | JettyError::Cancelled { .. }
                ),
                "threads={threads}: {err}"
            );
            assert!(engine.cache().is_empty(), "a failed suite must never be cached");
            let stats = engine.stats();
            assert_eq!(stats.suites_failed, 1);
            assert_eq!(stats.suites_executed, 0);
            assert!(engine.take_timings().is_empty(), "failed suites record no timing");
        }
    }

    #[test]
    fn a_failed_suite_is_attempted_once_then_answered_from_the_error_memo() {
        let engine = Engine::new(2).with_deadline(Some(Duration::ZERO));
        let first = engine.run_suite(&quick(0.002)).unwrap_err();
        let jobs_after_first = engine.stats().jobs_executed;
        let second = engine.run_suite(&quick(0.002)).unwrap_err();
        assert_eq!(first.kind(), second.kind());
        let stats = engine.stats();
        assert_eq!(stats.jobs_executed, jobs_after_first, "no re-execution of a doomed key");
        assert_eq!(stats.suites_failed, 1);
        assert_eq!(stats.cache_hits, 1, "the memoized error serves the second request");
    }

    #[test]
    fn a_failing_suite_does_not_disturb_its_batch_mates() {
        // Same engine, one batch: a generous deadline lets the small
        // suite finish while the zero-budget engine variant proves
        // isolation. Here: fail one key via the memo, then batch it with
        // a healthy key.
        let doomed = quick(0.002);
        let healthy = quick(0.004);
        let strict = Engine::new(2).with_deadline(Some(Duration::ZERO));
        assert!(strict.run_suite(&doomed).is_err());
        // Re-request both through the same (still zero-deadline) engine:
        // the doomed key is answered from the memo; the healthy key fails
        // too (deadline) — so instead check batch isolation on a fresh
        // engine where only the memoized key fails.
        let engine = Engine::new(2);
        let results = engine.run_suites(&[healthy.clone(), doomed.clone()]);
        assert!(results[0].is_ok() && results[1].is_ok(), "fresh engine has no memo");
        assert_eq!(strict.run_suites(&[doomed]).pop().unwrap().unwrap_err().kind(), "deadline");
    }
}
