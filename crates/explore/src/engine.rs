//! The work-stealing, multi-threaded exploration engine.

use crate::cache::{CompiledCache, PointError};
use crate::error::ExploreError;
use crate::job::Job;
use crate::pareto::{pareto_front, PointMetrics};
use crate::spec::ExplorationSpec;
use crate::store::{
    profile_digest, stimulus_digest, stimulus_layout_digest, EvalKey, ResultStore, StoreHealth,
    StoredEval,
};
use crate::summary::{render_summary, summarize_flows, FlowSummary};
use dpsyn_baselines::{input_profiles, FlowResult, FlowSynthesis};
use dpsyn_designs::Design;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::{Mutex, OnceLock};
use std::thread;

/// One evaluated point of the exploration: the job, its metrics and (optionally) the
/// synthesized artifact.
#[derive(Debug, Clone)]
pub struct ExplorationPoint {
    /// The job that produced the point.
    pub job: Job,
    /// Name of the materialized design (workload names include their shape).
    pub design: String,
    /// The extracted quality metrics.
    pub metrics: PointMetrics,
    /// The full flow result (netlist, word map) when the specification retains
    /// artifacts; `None` otherwise.
    pub artifact: Option<FlowResult>,
}

/// Bounded retries per job under the engine's catch-unwind supervision: a job
/// whose evaluation panics is retried from a clean per-worker cache state up to
/// this many total attempts, then quarantined ([`QuarantinedJob`]) instead of
/// aborting the sweep.
pub const JOB_ATTEMPT_LIMIT: usize = 3;

/// One job the engine gave up on: every attempt panicked, so the sweep completed
/// without it and reports it here (and in the rendered summary) instead of
/// aborting. Quarantined jobs are deterministic — the same specification and
/// fault plan quarantine the same jobs for every thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedJob {
    /// Canonical index of the job in the specification's matrix.
    pub index: usize,
    /// Human-readable job label (design, axes and flow).
    pub label: String,
    /// Evaluation attempts made before giving up (the retry limit).
    pub attempts: usize,
    /// The panic message of the final attempt.
    pub reason: String,
}

/// The outcome of one exploration: every evaluated point in canonical job order,
/// the dominance-filtered Pareto front, and the jobs quarantined after exhausting
/// their evaluation retries.
#[derive(Debug, Clone)]
pub struct ExplorationResults {
    points: Vec<ExplorationPoint>,
    front: Vec<usize>,
    quarantined: Vec<QuarantinedJob>,
}

impl ExplorationResults {
    /// Every evaluated point, in canonical job order (independent of thread count).
    /// Quarantined jobs contribute no point.
    pub fn points(&self) -> &[ExplorationPoint] {
        &self.points
    }

    /// Jobs whose every evaluation attempt panicked, in canonical job order.
    /// Empty on every healthy sweep.
    pub fn quarantined(&self) -> &[QuarantinedJob] {
        &self.quarantined
    }

    /// Indices (into [`Self::points`]) of the Pareto-optimal points over
    /// delay × power × area, ascending.
    pub fn front_indices(&self) -> &[usize] {
        &self.front
    }

    /// Iterates over the Pareto-optimal points in index order.
    pub fn front(&self) -> impl Iterator<Item = &ExplorationPoint> {
        self.front.iter().map(|&index| &self.points[index])
    }

    /// Per-flow aggregate summaries, in order of first appearance in the job matrix.
    pub fn summaries(&self) -> Vec<FlowSummary> {
        summarize_flows(self)
    }

    /// Renders the per-flow summary tables plus the Pareto front as text.
    ///
    /// The rendering is a pure function of the evaluated points, so it is
    /// byte-identical across runs and thread counts.
    pub fn render_summary(&self) -> String {
        render_summary(self)
    }
}

/// Per-worker scheduling diagnostics of one run. Unlike [`ExplorationResults`] these
/// **vary from run to run** (they record which worker happened to execute what), so
/// they are returned beside the results by [`explore_with_stats`], never inside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Chunks this worker executed (seeded + stolen).
    pub chunks: usize,
    /// Jobs this worker evaluated.
    pub jobs: usize,
    /// Chunks this worker stole from another worker's queue.
    pub steals: usize,
    /// Jobs this worker served from the persistent result store instead of
    /// evaluating (always 0 when no store is attached or lookups are disabled by
    /// artifact retention).
    pub store_hits: usize,
    /// Simulated-activity contexts this worker built (energy-table resolve +
    /// stimulus draw on a cached program). One per `(source, width, flow)` group
    /// the worker touches — the group's later points reuse the context (always 0
    /// without [`SimActivity`](crate::SimActivity)).
    pub sim_builds: usize,
    /// Points this worker ran the simulated switching metric for.
    pub sim_points: usize,
    /// Simulated points that reused a verified cached context instead of
    /// building one.
    pub sim_reuses: usize,
}

/// Scheduling diagnostics of one exploration, one entry per worker thread.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Per-worker counters, indexed by worker id (spawn order).
    pub workers: Vec<WorkerStats>,
    /// Integrity counters of the attached persistent store at load time
    /// (damaged/quarantined lines, torn tail, rebuild); `None` without a store.
    pub store: Option<StoreHealth>,
}

impl ExploreStats {
    /// Total number of stolen chunks across all workers.
    pub fn total_steals(&self) -> usize {
        self.workers.iter().map(|worker| worker.steals).sum()
    }

    /// Total number of jobs served from the persistent result store.
    pub fn total_store_hits(&self) -> usize {
        self.workers.iter().map(|worker| worker.store_hits).sum()
    }

    /// Total simulated-activity contexts built across all workers; with one
    /// thread this equals the number of `(source, width, flow)` groups touched.
    pub fn total_sim_builds(&self) -> usize {
        self.workers.iter().map(|worker| worker.sim_builds).sum()
    }

    /// Total points the simulated switching metric ran for.
    pub fn total_sim_points(&self) -> usize {
        self.workers.iter().map(|worker| worker.sim_points).sum()
    }

    /// Total simulated points that reused a verified cached context.
    pub fn total_sim_reuses(&self) -> usize {
        self.workers.iter().map(|worker| worker.sim_reuses).sum()
    }

    /// Jobs executed by the busiest and laziest workers — a quick imbalance probe.
    pub fn job_spread(&self) -> (usize, usize) {
        let max = self.workers.iter().map(|w| w.jobs).max().unwrap_or(0);
        let min = self.workers.iter().map(|w| w.jobs).min().unwrap_or(0);
        (max, min)
    }
}

/// The execution schedule of one run: job indices re-ordered so that jobs sharing
/// `(source, width, flow)` — i.e. differing only in their skew/bias profiles — are
/// adjacent, plus the claimable work units. Workers own whole chunks, so a chunk's
/// delta chain (first point full, later points through the dirty cone) runs on one
/// thread against one cache entry, in an order that is a pure function of the
/// specification (the chunking affects only scheduling, never results — the delta
/// path is bit-identical to the full path by construction).
///
/// # Chunk-size invariant
///
/// Each group of `len` jobs is cut into `ceil(len / chunk_size)` chunks with
/// `chunk_size = ceil(len / target)` and `target = min(len, threads × OVERPARTITION)`,
/// so for every group:
///
/// * `1 ≤ chunk_size ≤ len` — every chunk is non-empty and no `.max(1)` patch-up is
///   needed (`div_ceil` of a non-empty group by a non-zero target is already ≥ 1);
/// * the group yields at most `min(len, threads × OVERPARTITION)` chunks — never more
///   degenerate one-job chunks than the workers can actually use, even when
///   `threads > len`;
/// * with `threads × OVERPARTITION ≥ len` the schedule degenerates to per-job chunks
///   (maximal parallelism).
///
/// [`OVERPARTITION`] cuts groups finer than one chunk per worker so stealing can
/// re-balance the tail of a dominant group. Finer chunks cost nothing when they stay
/// on their seeded worker: the worker's [`CompiledCache`] entry survives across
/// consecutive same-group chunks, so only the first chunk of a group **per worker**
/// pays the full compile-and-prime path — every later leader is a verified hash hit
/// that re-runs the delta path, exactly like a mid-chunk point.
struct Schedule {
    /// Job indices, group-major; within a group the canonical (skew, bias) order.
    order: Vec<usize>,
    /// Half-open ranges into `order`, one per claimable chunk.
    chunks: Vec<Range<usize>>,
}

/// Chunks per worker each `(source, width, flow)` group is cut into (capped at the
/// group length). On the `explore` binary's 6-point groups, four gives one-job
/// chunks at two or more workers, so a steal can take any single point of a
/// dominant group's tail, while a single worker still runs each group as
/// consecutive chunks that share one warm cache entry. Like every scheduling
/// choice it moves wall-clock time, never results.
const OVERPARTITION: usize = 4;

fn schedule(spec: &ExplorationSpec, jobs: &[Job]) -> Schedule {
    // The flow's position in the specification (not its value) keys the sort so the
    // schedule never depends on an ordering of `Flow` itself.
    let flow_rank = |job: &Job| {
        spec.flows
            .iter()
            .position(|flow| *flow == job.flow())
            .unwrap_or(usize::MAX)
    };
    let key = |index: usize| {
        let job = &jobs[index];
        (job.source_index(), job.width(), flow_rank(job))
    };
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    // Stable: within a group the canonical enumeration order (skew-major) survives.
    order.sort_by_key(|&index| key(index));
    let mut groups: Vec<Range<usize>> = Vec::new();
    for position in 0..order.len() {
        if position == 0 || !jobs[order[position]].is_delta_peer(&jobs[order[position - 1]]) {
            groups.push(position..position + 1);
        } else if let Some(last) = groups.last_mut() {
            last.end += 1;
        }
    }
    let mut chunks = Vec::with_capacity(groups.len());
    for group in groups {
        let len = group.len();
        // See the type-level chunk-size invariant: capping the chunk target at the
        // group length keeps `threads > len` from requesting more one-job chunks
        // than the group has jobs, and `div_ceil` by the non-zero target is ≥ 1.
        let target = spec.threads().saturating_mul(OVERPARTITION).min(len);
        let chunk_size = len.div_ceil(target);
        let mut begin = group.start;
        while begin < group.end {
            let end = (begin + chunk_size).min(group.end);
            chunks.push(begin..end);
            begin = end;
        }
    }
    Schedule { order, chunks }
}

/// The number of workers a run spawns: the specification's thread count, capped at
/// the chunk count. A worker beyond the chunk count would never own a chunk, and
/// the cap keeps an arbitrary requested `threads` (a serve request's, say) from
/// sizing per-worker allocations and thread spawns. The chunk list itself does not
/// depend on the cap, so neither do the results.
fn worker_count(spec: &ExplorationSpec, chunk_count: usize) -> usize {
    spec.threads().min(chunk_count)
}

/// Seeds the per-worker chunk queues: contiguous blocks of the group-major chunk
/// list, so consecutive chunks of one group land on one worker and its compiled
/// cache serves the whole group unless a steal re-balances it.
fn seed_queues(chunk_count: usize, workers: usize) -> Vec<VecDeque<usize>> {
    let mut queues = vec![VecDeque::new(); workers];
    for (worker, queue) in queues.iter_mut().enumerate() {
        let begin = chunk_count * worker / workers;
        let end = chunk_count * (worker + 1) / workers;
        queue.extend(begin..end);
    }
    queues
}

/// The shared work-stealing state: one deque of chunk indices per worker.
///
/// Terminology follows the classic work-stealing deque: the **bottom** is the end the
/// owner works at (here the *front* — the next chunk of its seeded, group-major
/// block, preserving cache affinity), the **top** is the end thieves take from (the
/// *back* — the chunk farthest from what the owner is currently warming its cache
/// for). Each deque sits behind its own mutex; chunks are coarse units (a full
/// synthesis + analysis chain each), so the locks are uncontended in practice.
struct StealQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    fn new(seeded: Vec<VecDeque<usize>>) -> Self {
        StealQueues {
            queues: seeded.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Pops the owner's next chunk from the bottom of its own deque.
    fn pop_own(&self, owner: usize) -> Option<usize> {
        self.queues[owner]
            .lock()
            .expect("worker queues are never poisoned")
            .pop_front()
    }

    /// Steals one chunk from the top of the busiest other deque (the one with the
    /// most queued chunks, ties to the highest index): the victim that would
    /// otherwise hold the longest tail of unstarted work.
    ///
    /// Returns `None` only when every other queue is empty at scan time — and since
    /// chunks are only ever *removed* after seeding, an all-empty scan proves every
    /// chunk has been claimed, so the thief can retire without losing work.
    fn steal(&self, thief: usize) -> Option<usize> {
        loop {
            let victim = self
                .queues
                .iter()
                .enumerate()
                .filter(|(index, _)| *index != thief)
                .map(|(index, queue)| {
                    let len = queue
                        .lock()
                        .expect("worker queues are never poisoned")
                        .len();
                    (len, index)
                })
                .filter(|(len, _)| *len > 0)
                .max_by_key(|(len, _)| *len)
                .map(|(_, index)| index)?;
            // The victim may have drained between the scan and this lock; rescan.
            if let Some(chunk) = self.queues[victim]
                .lock()
                .expect("worker queues are never poisoned")
                .pop_back()
            {
                return Some(chunk);
            }
        }
    }
}

/// A read-only preview of the schedule [`explore`] would execute for a
/// specification: the chunk layout (each chunk as its job indices, in claim order)
/// and the seeded per-worker queues (as chunk indices).
///
/// This is introspection for benches and regression tests — the scheduler's chunking
/// and seeding affect only wall-clock time, never results, so the preview carries no
/// correctness weight beyond pinning the documented invariants.
#[derive(Debug, Clone)]
pub struct SchedulePreview {
    chunks: Vec<Vec<usize>>,
    queues: Vec<Vec<usize>>,
}

impl SchedulePreview {
    /// The chunks of the schedule, each listed as the job indices it evaluates in
    /// order (the first job of a chunk is its delta-chain leader).
    pub fn chunks(&self) -> &[Vec<usize>] {
        &self.chunks
    }

    /// The seeded queue of every worker, as indices into [`Self::chunks`]; workers
    /// pop from the front and thieves steal from the back.
    pub fn worker_queues(&self) -> &[Vec<usize>] {
        &self.queues
    }
}

/// Computes the [`SchedulePreview`] of a specification without running anything.
pub fn schedule_preview(spec: &ExplorationSpec) -> SchedulePreview {
    let jobs = spec.jobs();
    let plan = schedule(spec, &jobs);
    let chunks: Vec<Vec<usize>> = plan
        .chunks
        .iter()
        .map(|range| plan.order[range.clone()].to_vec())
        .collect();
    let queues = seed_queues(chunks.len(), worker_count(spec, chunks.len()))
        .into_iter()
        .map(Vec::from)
        .collect();
    SchedulePreview { chunks, queues }
}

/// Runs an exploration: shards the job matrix across the specification's worker
/// threads, evaluates every point, and reduces the results into canonical order plus
/// the Pareto front.
///
/// The scheduler is **work-stealing over group-chunks**: every worker owns a deque
/// of chunk indices seeded contiguously from the group-major schedule (each
/// `(source, width, flow)` group cut into at most four chunks per worker), pops
/// locally from the bottom (keeping consecutive chunks of a group — and therefore
/// their shared compiled-program cache entry — on one thread), and when its own
/// deque runs dry steals from the top of the busiest other deque, so a dominant
/// group can never strand the other workers while one of them grinds through it.
///
/// A chunk's first point runs through the full synthesis + analysis path whenever
/// the worker's cache misses (priming the entry), and every other point of the chunk
/// re-analyses through the cache's delta path — falling back to the full path
/// whenever the synthesized structure does not verify against the cached program.
/// Every result lands in a preallocated write-once slot keyed by its canonical job
/// index, so the returned results are **bit-identical for any worker count and any
/// steal order** (the delta path's reports are bit-identical to full re-analysis by
/// construction, and the property suites pin that down).
///
/// # Errors
///
/// Returns [`ExploreError::Flow`] when a synthesis flow fails on a job; if several
/// jobs fail, the error of the lowest-indexed job is returned (again independent of
/// the thread count).
pub fn explore(spec: &ExplorationSpec) -> Result<ExplorationResults, ExploreError> {
    explore_with_stats(spec).map(|(results, _)| results)
}

/// Like [`explore`], additionally returning the run's scheduling diagnostics
/// ([`ExploreStats`]): per-worker chunk/job/steal/store-hit counters. The results
/// half is bit-identical to [`explore`]'s; the stats half records *this run's*
/// scheduling and may differ between runs.
///
/// When the specification attaches a persistent store
/// ([`ExplorationSpecBuilder::store`](crate::ExplorationSpecBuilder::store)), this
/// is also where the persistence round-trip happens: the memo file is loaded
/// before the run, warm hits are served from it during the run, and the union of
/// old and fresh records is flushed back atomically afterwards.
pub fn explore_with_stats(
    spec: &ExplorationSpec,
) -> Result<(ExplorationResults, ExploreStats), ExploreError> {
    match spec.store_path() {
        None => explore_with_store(spec, None).map(|(results, stats, _)| (results, stats)),
        Some(path) => {
            let mut store = ResultStore::load_with_faults(path, spec.faults().cloned())?;
            let (results, stats, fresh) = explore_with_store(spec, Some(&store))?;
            store.merge(fresh);
            store.flush()?;
            Ok((results, stats))
        }
    }
}

/// The fresh `(key, value)` records one [`explore_with_store`] run evaluated,
/// sorted by key — ready for [`ResultStore::merge`].
pub type FreshRecords = Vec<(EvalKey, StoredEval)>;

/// The lowest-level entry point: runs an exploration against an optional
/// **caller-managed** [`ResultStore`] snapshot and returns the fresh records the
/// run evaluated (sorted by key) alongside the results and stats, leaving the
/// merge/flush policy to the caller. [`explore_with_stats`] builds the simple
/// load–run–flush cycle on top; the server mode shares one store across requests
/// by snapshotting it per request and merging the fresh records back under its own
/// lock.
///
/// Store semantics:
///
/// * Lookups are served at both stages — point-level hits skip the job entirely,
///   analysis-level hits skip the analysis bundle — and always return figures
///   **byte-identical** to fresh evaluation (the store holds exact f64 bit
///   patterns keyed by the exact evaluation identity).
/// * When the specification retains artifacts, lookups are disabled (a memoized
///   record has no netlist to retain, and the retention contract is exact);
///   fresh records are still produced so the run warms the store either way.
/// * `store: None` is precisely the pre-store engine: no keys are computed, no
///   records returned.
///
/// # Errors
///
/// Returns [`ExploreError::Flow`] when a synthesis flow fails on a job (lowest
/// job index wins, independent of thread count). A *panicking* evaluation no
/// longer fails the run at all: each job runs under `catch_unwind` supervision,
/// is retried up to [`JOB_ATTEMPT_LIMIT`] attempts from a clean per-worker cache
/// state, and is quarantined ([`ExplorationResults::quarantined`]) when every
/// attempt panics — the other jobs complete normally.
/// [`ExploreError::WorkerPanic`] remains only as the thread-level fallback for a
/// panic *outside* the supervised evaluation (scheduler internals).
pub fn explore_with_store(
    spec: &ExplorationSpec,
    store: Option<&ResultStore>,
) -> Result<(ExplorationResults, ExploreStats, FreshRecords), ExploreError> {
    let jobs = spec.jobs();
    let plan = schedule(spec, &jobs);
    let workers = worker_count(spec, plan.chunks.len());
    let queues = StealQueues::new(seed_queues(plan.chunks.len(), workers));
    let memo = store.map(|store| StoreContext {
        store,
        tech_digest: spec.tech().identity_digest(),
    });
    // One write-once slot per job: no result lock, no post-run sort.
    let slots: Vec<OnceLock<JobOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let mut stats = ExploreStats {
        workers: Vec::with_capacity(workers),
        store: store.map(ResultStore::health),
    };
    // Fresh records, keyed: the BTreeMap both deduplicates (identical keys carry
    // identical values by evaluation purity) and fixes the return order, so the
    // fresh set is independent of which worker evaluated what.
    let mut fresh = BTreeMap::new();
    let mut panicked = false;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let queues = &queues;
                let plan = &plan;
                let jobs = &jobs;
                let slots = &slots;
                let memo = memo.as_ref();
                scope.spawn(move || {
                    let mut cache = CompiledCache::new(spec);
                    let mut worker = WorkerStats::default();
                    let mut recorded = Vec::new();
                    loop {
                        let (chunk_index, stolen) = match queues.pop_own(me) {
                            Some(chunk) => (chunk, false),
                            None => match queues.steal(me) {
                                Some(chunk) => (chunk, true),
                                None => break,
                            },
                        };
                        worker.chunks += 1;
                        worker.steals += usize::from(stolen);
                        for &job_index in &plan.order[plan.chunks[chunk_index].clone()] {
                            worker.jobs += 1;
                            let outcome = supervised_evaluate(
                                spec,
                                &jobs[job_index],
                                &mut cache,
                                memo,
                                &mut recorded,
                                &mut worker,
                            );
                            let stored = slots[job_index].set(outcome);
                            debug_assert!(stored.is_ok(), "every job index is claimed once");
                        }
                    }
                    (worker, recorded)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((worker, recorded)) => {
                    stats.workers.push(worker);
                    for (key, value) in recorded {
                        fresh.entry(key).or_insert(value);
                    }
                }
                // A worker thread died outside the supervised evaluation (its
                // panic payload is opaque; the unfilled result slot identifies
                // the job). Keep joining so the remaining workers drain cleanly
                // before the error returns.
                Err(_) => panicked = true,
            }
        }
    });
    if panicked {
        let job = slots
            .iter()
            .position(|slot| slot.get().is_none())
            .unwrap_or(0);
        return Err(ExploreError::WorkerPanic { job });
    }
    let mut points = Vec::with_capacity(jobs.len());
    let mut quarantined = Vec::new();
    let mut first_error = None;
    for (index, slot) in slots.into_iter().enumerate() {
        let outcome = slot
            .into_inner()
            .expect("every job slot is filled by exactly one worker");
        match outcome {
            JobOutcome::Point(point) => points.push(*point),
            // Lowest job index wins, independent of the thread count: slots are
            // scanned in canonical order.
            JobOutcome::Failed(error) => {
                if first_error.is_none() {
                    first_error = Some(error);
                }
            }
            JobOutcome::Quarantined { attempts, reason } => quarantined.push(QuarantinedJob {
                index,
                label: jobs[index].label(),
                attempts,
                reason,
            }),
        }
    }
    if let Some(error) = first_error {
        return Err(error);
    }
    let metrics: Vec<PointMetrics> = points.iter().map(|point| point.metrics).collect();
    let front = pareto_front(&metrics);
    Ok((
        ExplorationResults {
            points,
            front,
            quarantined,
        },
        stats,
        fresh.into_iter().collect(),
    ))
}

/// The supervised outcome of one job, as stored in its write-once result slot.
enum JobOutcome {
    /// The evaluation succeeded (possibly after panicking retries).
    ///
    /// Boxed: a point (metrics + optional retained artifacts) dwarfs the other
    /// variants, and the slot vector holds one slot per job.
    Point(Box<ExplorationPoint>),
    /// The evaluation returned a typed error (flow/sim/store failure).
    Failed(ExploreError),
    /// Every attempt panicked; the job is quarantined instead of failing the run.
    Quarantined {
        /// Attempts made (the retry limit).
        attempts: usize,
        /// Panic message of the final attempt.
        reason: String,
    },
}

/// Best-effort text of a panic payload (`panic!` carries `&str` or `String`).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs [`evaluate`] under `catch_unwind` supervision with bounded deterministic
/// retry: a panicking attempt resets the worker's program cache (a panic may have
/// left an entry mid-update) and truncates the fresh-record tail back
/// to the pre-attempt mark (so the store never keeps records of a poisoned
/// attempt), then retries; after [`JOB_ATTEMPT_LIMIT`] panicking attempts the job
/// is quarantined. Because the retry budget is per *job* (not per worker or
/// wall-clock), the outcome is identical for every thread count.
fn supervised_evaluate<'a>(
    spec: &'a ExplorationSpec,
    job: &Job,
    cache: &mut CompiledCache<'a>,
    memo: Option<&StoreContext<'_>>,
    recorded: &mut Vec<(EvalKey, StoredEval)>,
    worker: &mut WorkerStats,
) -> JobOutcome {
    for attempt in 1..=JOB_ATTEMPT_LIMIT {
        let mark = recorded.len();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            evaluate(spec, job, &mut *cache, memo, recorded, worker)
        }));
        match caught {
            Ok(Ok(point)) => return JobOutcome::Point(Box::new(point)),
            Ok(Err(error)) => return JobOutcome::Failed(error),
            Err(payload) => {
                recorded.truncate(mark);
                *cache = CompiledCache::new(spec);
                if attempt == JOB_ATTEMPT_LIMIT {
                    return JobOutcome::Quarantined {
                        attempts: attempt,
                        reason: panic_reason(payload.as_ref()),
                    };
                }
            }
        }
    }
    unreachable!("the attempt loop always returns")
}

/// The store view one run evaluates against: an immutable snapshot plus the tech
/// digest computed once for every key of the run.
struct StoreContext<'a> {
    store: &'a ResultStore,
    tech_digest: u64,
}

/// Builds an exploration point (without artifact) from its record — a memoized
/// one or the one this job just produced; records hold exact bit patterns, so a
/// warm hit is byte-identical to fresh evaluation. `sim_on` says whether the sweep
/// carries a simulated metric: a key could only have matched a record of the same
/// kind, so the stored `simulated_switch_power` is meaningful exactly then.
fn point_from_stored(
    job: &Job,
    design: &Design,
    stored: StoredEval,
    sim_on: bool,
) -> ExplorationPoint {
    ExplorationPoint {
        job: job.clone(),
        design: design.name().to_string(),
        metrics: PointMetrics {
            delay: stored.delay,
            power: stored.power_mw,
            area: stored.area,
            switching_energy: stored.switching_energy,
            cell_count: stored.cell_count,
            logic_depth: stored.logic_depth,
            simulated_switch_power: sim_on.then_some(stored.simulated_switch_power),
        },
        artifact: None,
    }
}

/// Evaluates one job: materializes its design, runs its flow's synthesis, and obtains
/// the metrics (delay from timing analysis, power from probability propagation, area
/// and structure straight off the compiled program). Flows that synthesize without
/// analysing are analysed through the worker's [`CompiledCache`]: a structurally
/// verified hit re-analyses only the dirty cone, a miss compiles the structure once
/// and takes the full bundle.
///
/// With a [`StoreContext`] attached the job additionally consults the persistent
/// store — a point-level hit skips even synthesis, an analysis-level hit skips the
/// analysis bundle — and appends its own records to `recorded`. Lookups are
/// skipped (but records still produced) when artifacts are retained; see
/// [`explore_with_store`].
///
/// When the specification carries a [`SimActivity`](crate::SimActivity), the
/// synthesized netlist is additionally simulated through the same cache entry — the
/// structure's compiled program plus the run's shared stimulus batch absorb every
/// later point — and both store keys fold the stimulus digest, so simulated and
/// analytic records never alias.
fn evaluate(
    spec: &ExplorationSpec,
    job: &Job,
    cache: &mut CompiledCache<'_>,
    memo: Option<&StoreContext<'_>>,
    recorded: &mut Vec<(EvalKey, StoredEval)>,
    worker: &mut WorkerStats,
) -> Result<ExplorationPoint, ExploreError> {
    // Fault hook first: injected panics and stalls must fire on *every* attempt,
    // including warm reruns that would otherwise short-circuit on a store hit.
    if let Some(faults) = spec.faults() {
        faults.on_job_attempt(job.index());
    }
    let design = spec.materialize(job);
    let activity = spec.sim_activity();
    let sim_on = activity.is_some();
    let lookups = memo.filter(|_| !spec.retain_artifacts);
    let point_key = memo.map(|context| {
        let stimulus = activity.map(stimulus_digest).unwrap_or(0);
        EvalKey::point(&design, job.flow(), context.tech_digest, stimulus)
    });
    if let (Some(context), Some(key)) = (lookups, point_key.as_ref()) {
        if let Some(stored) = context.store.lookup(key) {
            worker.store_hits += 1;
            return Ok(point_from_stored(job, &design, stored, sim_on));
        }
    }
    let synthesis = job
        .flow()
        .synthesize(
            design.expr(),
            design.spec(),
            design.output_width(),
            spec.tech(),
        )
        .map_err(|source| ExploreError::Flow {
            job: job.label(),
            source,
        })?;
    let (stored, artifact) = match synthesis {
        FlowSynthesis::Analyzed(result) => {
            let simulated = cache
                .simulate(&result, design.spec(), worker)
                .map_err(|message| ExploreError::Sim {
                    job: job.label(),
                    message,
                })?;
            let stored = StoredEval {
                delay: result.delay,
                area: result.area,
                switching_energy: result.switching_energy,
                power_mw: result.power_mw,
                cell_count: result.compiled.cell_count(),
                logic_depth: result.compiled.level_count(),
                // An analytic sweep's record carries zero: its key's zero stimulus
                // digest keeps it from ever being read back as a simulated one.
                simulated_switch_power: simulated.unwrap_or(0.0),
            };
            (stored, spec.retain_artifacts.then_some(*result))
        }
        FlowSynthesis::Unanalyzed(parts) => {
            let (arrivals, probabilities) = input_profiles(&parts.word_map, design.spec());
            let analysis_key = memo.map(|context| {
                let stimulus = activity
                    .map(|activity| {
                        stimulus_layout_digest(stimulus_digest(activity), &parts.word_map)
                    })
                    .unwrap_or(0);
                EvalKey::analysis(
                    &parts.netlist,
                    context.tech_digest,
                    parts.flow,
                    profile_digest(&arrivals, &probabilities),
                    stimulus,
                )
            });
            if let (Some(context), Some(key)) = (lookups, analysis_key.as_ref()) {
                if let Some(stored) = context.store.lookup(key) {
                    worker.store_hits += 1;
                    // Promote the hit to a point-level record so the next run
                    // skips this job's synthesis too.
                    if let Some(point_key) = point_key {
                        recorded.push((point_key, stored));
                    }
                    return Ok(point_from_stored(job, &design, stored, sim_on));
                }
            }
            let (stored, artifact) = cache
                .analyze(
                    parts.flow,
                    parts.netlist,
                    parts.word_map,
                    (&arrivals, &probabilities),
                    design.spec(),
                    worker,
                )
                .map_err(|error| {
                    let job = job.label();
                    match error {
                        PointError::Flow(source) => ExploreError::Flow { job, source },
                        PointError::Sim(message) => ExploreError::Sim { job, message },
                    }
                })?;
            if let Some(key) = analysis_key {
                recorded.push((key, stored));
            }
            (stored, artifact)
        }
    };
    if let Some(key) = point_key {
        recorded.push((key, stored));
    }
    let mut point = point_from_stored(job, &design, stored, sim_on);
    point.artifact = artifact;
    Ok(point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BiasProfile, SkewProfile};
    use dpsyn_baselines::Flow;

    /// A workload spec whose matrix has one group of `skews × biases` jobs per
    /// `(width, flow)` combination.
    fn spec(threads: usize) -> ExplorationSpec {
        ExplorationSpec::builder()
            .sum_workload(3)
            .widths([3, 4])
            .skews([
                SkewProfile::Keep,
                SkewProfile::Uniform(1.0),
                SkewProfile::Uniform(2.0),
            ])
            .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
            .flows([Flow::Conventional, Flow::FaAot])
            .threads(threads)
            .build()
            .expect("schedule test spec is well-formed")
    }

    /// Every chunk is non-empty, covers each job exactly once, never mixes groups,
    /// and respects the documented per-group chunk-count cap.
    fn assert_schedule_invariants(spec: &ExplorationSpec) {
        let jobs = spec.jobs();
        let preview = schedule_preview(spec);
        let mut seen = vec![false; jobs.len()];
        for chunk in preview.chunks() {
            assert!(!chunk.is_empty(), "degenerate empty chunk");
            for &job_index in chunk {
                assert!(!seen[job_index], "job {job_index} scheduled twice");
                seen[job_index] = true;
                assert!(
                    jobs[chunk[0]].is_delta_peer(&jobs[job_index]),
                    "chunk mixes groups"
                );
            }
        }
        assert!(seen.iter().all(|&claimed| claimed), "schedule misses jobs");
        // Per-group chunk cap: count chunks per (source, width, flow) group.
        let cap = spec.threads() * OVERPARTITION;
        let mut group_chunks: Vec<(usize, usize)> = Vec::new(); // (leader job, chunks)
        for chunk in preview.chunks() {
            match group_chunks
                .iter_mut()
                .find(|(leader, _)| jobs[*leader].is_delta_peer(&jobs[chunk[0]]))
            {
                Some((_, count)) => *count += 1,
                None => group_chunks.push((chunk[0], 1)),
            }
        }
        for (leader, count) in group_chunks {
            let group_len = jobs
                .iter()
                .filter(|job| job.is_delta_peer(&jobs[leader]))
                .count();
            assert!(
                count <= cap.min(group_len),
                "group of {group_len} jobs split into {count} chunks (cap {})",
                cap.min(group_len)
            );
        }
        // Seeding: every chunk index queued exactly once, in contiguous blocks.
        let queued: Vec<usize> = preview
            .worker_queues()
            .iter()
            .flat_map(|queue| queue.iter().copied())
            .collect();
        assert_eq!(queued, (0..preview.chunks().len()).collect::<Vec<_>>());
    }

    #[test]
    fn chunking_respects_invariants_across_thread_counts() {
        for threads in [1, 2, 3, 4, 7, 8, 64] {
            assert_schedule_invariants(&spec(threads));
        }
    }

    #[test]
    fn more_threads_than_jobs_emits_at_most_one_chunk_per_job() {
        // 24 jobs under 64 workers: the old `ceil(len/threads)` sizing already gave
        // one-job chunks; the tightened target additionally caps the chunk count at
        // the group length, so there are never more (degenerate) chunks than jobs.
        let spec = spec(64);
        let preview = schedule_preview(&spec);
        assert_eq!(preview.chunks().len(), spec.jobs().len());
        assert!(preview.chunks().iter().all(|chunk| chunk.len() == 1));
        // The seeded queues still cover every chunk, one seeded worker per chunk:
        // no idle tail workers are spawned.
        let seeded: usize = preview.worker_queues().iter().map(Vec::len).sum();
        assert_eq!(seeded, preview.chunks().len());
        assert_eq!(preview.worker_queues().len(), preview.chunks().len());
        assert!(preview.worker_queues().iter().all(|queue| queue.len() == 1));
    }

    #[test]
    fn single_thread_queues_every_group_as_chunks_of_two() {
        let spec = spec(1);
        let preview = schedule_preview(&spec);
        // 2 widths × 2 flows = 4 groups of skews × biases = 6 jobs each; one
        // thread targets min(6, 1 × 4) = 4 chunks, so chunks of ceil(6 / 4) = 2.
        assert_eq!(preview.chunks().len(), 12);
        assert!(preview.chunks().iter().all(|chunk| chunk.len() == 2));
        assert_eq!(preview.worker_queues().len(), 1);
        assert_eq!(preview.worker_queues()[0], (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn overpartition_splits_groups_finer_for_stealing() {
        // Groups of 6 at two workers: target min(6, 2 × 4) = 6, so every job is its
        // own chunk — six stealable units per group instead of one per worker.
        let preview = schedule_preview(&spec(2));
        assert!(preview.chunks().iter().all(|chunk| chunk.len() == 1));
    }

    #[test]
    fn remainder_groups_keep_chunks_within_one_of_each_other() {
        // A 5-job group at 1 thread: target min(5, 4) = 4, ceil(5/4) = 2 → chunks
        // of 2, 2 and 1 — the remainder chunk is smaller, never empty.
        let spec = ExplorationSpec::builder()
            .sum_workload(3)
            .width(3)
            .skews([
                SkewProfile::Keep,
                SkewProfile::Uniform(1.0),
                SkewProfile::Uniform(2.0),
                SkewProfile::Uniform(3.0),
                SkewProfile::Uniform(4.0),
            ])
            .flow(Flow::Conventional)
            .threads(1)
            .build()
            .expect("spec is well-formed");
        let preview = schedule_preview(&spec);
        let sizes: Vec<usize> = preview.chunks().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn an_oversized_thread_count_spawns_one_worker_per_chunk() {
        // A thread count no host could spawn (or allocate per-worker state for)
        // must run exactly like one thread: the engine caps its workers at the
        // chunk count, and a one-job spec has one chunk.
        let one_job = |threads: usize| {
            ExplorationSpec::builder()
                .sum_workload(3)
                .width(3)
                .flow(Flow::Conventional)
                .threads(threads)
                .build()
                .expect("one-job spec is well-formed")
        };
        let huge = one_job(1 << 60);
        assert_eq!(huge.jobs().len(), 1);
        assert_eq!(schedule_preview(&huge).worker_queues().len(), 1);
        let (results, stats) = explore_with_stats(&huge).expect("capped run succeeds");
        assert_eq!(stats.workers.len(), 1);
        let reference = explore(&one_job(1)).expect("single-threaded run succeeds");
        assert_eq!(results.points().len(), 1);
        for (got, want) in results.points().iter().zip(reference.points()) {
            assert_eq!(got.job, want.job);
            assert_eq!(got.metrics, want.metrics);
        }
        assert_eq!(results.render_summary(), reference.render_summary());
    }

    #[test]
    fn sim_contexts_are_built_once_per_group_and_reused() {
        use crate::spec::SimActivity;
        // 2 widths × 2 flows = 4 (source, width, flow) groups of 3 skews × 2
        // biases = 6 jobs each. One worker runs each group as three consecutive
        // chunks of 2, and its cache entry survives from one chunk to the next.
        // Both flows bind modules without looking at input profiles,
        // so every point of a group synthesizes the identical structure and the
        // simulated metric must compile exactly one block program (and draw one
        // stimulus batch) per group, absorbing the other five points as verified
        // reuses. (Profile-steered flows like the FA-tree family synthesize
        // different structures per skew and legitimately build more.)
        let spec = ExplorationSpec::builder()
            .sum_workload(3)
            .widths([3, 4])
            .skews([
                SkewProfile::Keep,
                SkewProfile::Uniform(1.0),
                SkewProfile::Uniform(2.0),
            ])
            .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
            .flows([Flow::Conventional, Flow::CsaOpt])
            .threads(1)
            .sim_activity(SimActivity {
                seed: 11,
                vectors: 512,
            })
            .build()
            .expect("sim reuse spec is well-formed");
        let (results, stats) = explore_with_stats(&spec).expect("sim sweep runs");
        assert_eq!(results.points().len(), 24);
        assert_eq!(stats.total_sim_points(), 24, "every point is simulated");
        assert_eq!(
            stats.total_sim_builds(),
            4,
            "one block program + stimulus batch per (source, width, flow) group"
        );
        assert_eq!(stats.total_sim_reuses(), 20);
        for point in results.points() {
            let simulated = point
                .metrics
                .simulated_switch_power
                .expect("sim metric present on every point");
            assert!(simulated.is_finite() && simulated > 0.0);
        }
        let text = results.render_summary();
        assert!(text.contains("sim mW"), "summary gains the sim column");
        assert!(text.contains("div%"), "summary gains the divergence column");

        // An analytic sweep of the same matrix carries no simulated metric and
        // renders the historical table.
        let analytic = ExplorationSpec::builder()
            .sum_workload(3)
            .widths([3, 4])
            .skews([
                SkewProfile::Keep,
                SkewProfile::Uniform(1.0),
                SkewProfile::Uniform(2.0),
            ])
            .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
            .flows([Flow::Conventional, Flow::CsaOpt])
            .threads(1)
            .build()
            .expect("analytic twin is well-formed");
        let (results, stats) = explore_with_stats(&analytic).expect("analytic sweep runs");
        assert_eq!(stats.total_sim_points(), 0);
        assert_eq!(stats.total_sim_builds(), 0);
        assert!(results
            .points()
            .iter()
            .all(|point| point.metrics.simulated_switch_power.is_none()));
        assert!(!results.render_summary().contains("sim mW"));
    }

    #[test]
    fn steal_queues_drain_exactly_once() {
        let queues = StealQueues::new(seed_queues(10, 3));
        // Worker 2 drains its own queue then steals everything else dry.
        let mut claimed = Vec::new();
        while let Some(chunk) = queues.pop_own(2) {
            claimed.push(chunk);
        }
        while let Some(chunk) = queues.steal(2) {
            claimed.push(chunk);
        }
        claimed.sort_unstable();
        assert_eq!(claimed, (0..10).collect::<Vec<_>>());
        assert_eq!(
            queues.steal(0),
            None,
            "drained queues have nothing to steal"
        );
    }
}
