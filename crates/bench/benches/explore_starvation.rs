//! Adversarial starvation bench for the work-stealing exploration scheduler.
//!
//! The matrix is built to starve the PR-5 static chunker: many **tiny** groups
//! (cheap fixed designs, enumerated first) followed by one **dominant** group (an
//! 8-operand 10-bit sum workload whose per-point analysis dwarfs everything else,
//! enumerated last). Under `ceil(len / threads)` chunking the dominant group's five
//! jobs split into three chunks for four workers, so once the tiny work drains one
//! worker idles through the whole dominant tail; the work-stealing scheduler's
//! over-partitioned chunks let every worker pull dominant jobs instead.
//!
//! ```bash
//! cargo bench -p dpsyn-bench --bench explore_starvation
//! ```
//!
//! The harness runs three stages, in order:
//!
//! 1. **Bit-identity** (before any timing): the real engine's sweep output must be
//!    byte-identical across 1/2/4/8 workers.
//! 2. **Scheduler simulation**: the engine's schedule and the PR-5 static chunker
//!    (rebuilt here from the job list) are replayed deterministically
//!    against a per-job cost model measured off the evaluated points (full cost ∝
//!    compiled cell count; delta reruns cost a quarter of that, the conservative
//!    end of the committed `BENCH_incremental.json` 3–4.3× speedups; a worker's
//!    resident compiled-program entry survives across its consecutive same-group
//!    chunks). The work-stealing schedule must show **strictly lower worst-worker
//!    idle time** than the static chunker. A simulation (not wall clock) is what
//!    keeps this gate meaningful on the single-core CI container — the committed
//!    `BENCH_explore.json` records the host core count precisely because wall-clock
//!    scaling numbers from such hosts say nothing about scheduling quality.
//! 3. **Criterion timings** of the real adversarial sweep at 1 and 4 workers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpsyn_baselines::Flow;
use dpsyn_explore::{
    explore, schedule_preview, ExplorationResults, ExplorationSpec, Job, SkewProfile,
};

/// Simulated worker count: the schedule comparison models a four-core host.
const SIM_THREADS: usize = 4;

/// Delta reruns cost this fraction of a full evaluation in the simulation's cost
/// model (conservative against the committed ≥ 3× incremental floor).
const DELTA_COST_FRACTION: f64 = 0.25;

/// The adversarial matrix: four tiny groups (19/97/169/342 compiled cells —
/// sources 0..=3, scheduled first) plus the dominant 8-operand 16-bit sum workload
/// (1200 cells, source 4, scheduled last), five skew points each, one cacheable
/// flow — so every group is a five-job delta chain and the dominant group carries
/// roughly half the sweep's total work.
fn spec(threads: usize) -> ExplorationSpec {
    ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .design(dpsyn_designs::x_cubed())
        .sum_workload(2)
        .sum_workload(3)
        .sum_workload(8)
        .widths([16])
        .skews([
            SkewProfile::Keep,
            SkewProfile::Uniform(1.0),
            SkewProfile::Uniform(2.0),
            SkewProfile::Uniform(3.0),
            SkewProfile::Uniform(4.0),
        ])
        .flows([Flow::Conventional])
        .seed(29)
        .threads(threads)
        .build()
        .expect("starvation workload is well-formed")
}

/// Flattens a result into exactly-comparable bits.
fn fingerprint(results: &ExplorationResults) -> Vec<(String, u64, u64, u64)> {
    results
        .points()
        .iter()
        .map(|point| {
            (
                point.job.label(),
                point.metrics.delay.to_bits(),
                point.metrics.power.to_bits(),
                point.metrics.area.to_bits(),
            )
        })
        .collect()
}

/// Stage 1: byte-identical sweep output for any worker count.
fn bit_identity_gate() -> ExplorationResults {
    let reference = explore(&spec(1)).expect("single-threaded starvation sweep succeeds");
    let reference_bits = fingerprint(&reference);
    for threads in [2, 4, 8] {
        let run = explore(&spec(threads)).expect("work-stealing starvation sweep succeeds");
        assert_eq!(
            reference_bits,
            fingerprint(&run),
            "starvation sweep diverged at {threads} threads"
        );
    }
    reference
}

/// One schedule flattened for simulation: per chunk, its group id and the job
/// indices it evaluates in order.
struct SimSchedule {
    chunks: Vec<(usize, Vec<usize>)>,
    worker_queues: Vec<Vec<usize>>,
}

/// The dense group id of a job: the index of the first group leader it is a delta
/// peer of, registering it as a new leader when there is none.
fn group_of(jobs: &[Job], leaders: &mut Vec<usize>, job: usize) -> usize {
    match leaders
        .iter()
        .position(|&seen| jobs[seen].is_delta_peer(&jobs[job]))
    {
        Some(group) => group,
        None => {
            leaders.push(job);
            leaders.len() - 1
        }
    }
}

/// Extracts a simulatable schedule from the engine's preview, tagging every chunk
/// with a dense group id (chunks of delta-peer jobs share one).
fn sim_schedule(spec: &ExplorationSpec) -> SimSchedule {
    let jobs = spec.jobs();
    let preview = schedule_preview(spec);
    let mut leaders: Vec<usize> = Vec::new();
    let chunks = preview
        .chunks()
        .iter()
        .map(|chunk| (group_of(&jobs, &mut leaders, chunk[0]), chunk.clone()))
        .collect();
    SimSchedule {
        chunks,
        worker_queues: preview.worker_queues().to_vec(),
    }
}

/// The PR-5 static chunker, rebuilt from the job list: every delta-peer group (in
/// first-appearance order, jobs in canonical order) cut into chunks of
/// `ceil(len / threads)` jobs, claimed from one global list.
fn static_chunks(spec: &ExplorationSpec) -> Vec<(usize, Vec<usize>)> {
    let jobs = spec.jobs();
    let mut leaders: Vec<usize> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for job in 0..jobs.len() {
        let group = group_of(&jobs, &mut leaders, job);
        groups.resize_with(leaders.len(), Vec::new);
        groups[group].push(job);
    }
    groups
        .iter()
        .enumerate()
        .flat_map(|(group, members)| {
            let size = members.len().div_ceil(spec.threads());
            members
                .chunks(size)
                .map(move |chunk| (group, chunk.to_vec()))
        })
        .collect()
}

/// Per-worker simulation state: current clock, accumulated busy time and the group
/// whose compiled program is resident in the worker's one-entry cache.
#[derive(Clone, Default)]
struct SimWorker {
    time: f64,
    busy: f64,
    resident: Option<usize>,
}

impl SimWorker {
    /// Executes one chunk: the leader pays the full cost unless the chunk's group
    /// is already resident (a surviving entry from an earlier same-group chunk);
    /// every other job re-runs as a delta.
    fn run_chunk(&mut self, group: usize, jobs: &[usize], full_cost: &[f64]) {
        let mut cost = 0.0;
        for (position, &job) in jobs.iter().enumerate() {
            let warm = position > 0 || self.resident == Some(group);
            let scale = if warm { DELTA_COST_FRACTION } else { 1.0 };
            cost += full_cost[job] * scale;
        }
        self.resident = Some(group);
        self.time += cost;
        self.busy += cost;
    }
}

/// Worst-worker idle time of a finished simulation: the gap between the makespan
/// and the busiest-to-laziest workers' busy time, maximized.
fn worst_idle(workers: &[SimWorker]) -> f64 {
    let makespan = workers.iter().map(|w| w.time).fold(0.0, f64::max);
    workers
        .iter()
        .map(|w| makespan - w.busy)
        .fold(0.0, f64::max)
}

/// Replays the PR-5 static scheduler: chunks claimed in schedule order from a
/// global counter by whichever worker frees up first (ties to the lowest index) —
/// exactly what `fetch_add` over the chunk list did.
fn simulate_static(chunks: &[(usize, Vec<usize>)], full_cost: &[f64]) -> Vec<SimWorker> {
    let mut workers = vec![SimWorker::default(); SIM_THREADS];
    for (group, jobs) in chunks {
        let next = (0..workers.len())
            .min_by(|&a, &b| workers[a].time.total_cmp(&workers[b].time))
            .expect("at least one worker");
        workers[next].run_chunk(*group, jobs, full_cost);
    }
    workers
}

/// Replays the work-stealing scheduler: every worker drains its seeded queue from
/// the front; an idle worker steals from the back of the fullest remaining queue
/// (ties to the highest index), as the engine does.
fn simulate_stealing(schedule: &SimSchedule, full_cost: &[f64]) -> Vec<SimWorker> {
    let mut workers = vec![SimWorker::default(); SIM_THREADS];
    let mut queues: Vec<Vec<usize>> = schedule.worker_queues.clone();
    let mut retired = [false; SIM_THREADS];
    while retired.iter().any(|&done| !done) {
        let me = (0..workers.len())
            .filter(|&w| !retired[w])
            .min_by(|&a, &b| workers[a].time.total_cmp(&workers[b].time))
            .expect("an unretired worker exists");
        let chunk = if queues[me].is_empty() {
            let victim = (0..queues.len())
                .filter(|&v| v != me && !queues[v].is_empty())
                .max_by_key(|&v| queues[v].len());
            victim.map(|v| queues[v].pop().expect("victim queue is non-empty"))
        } else {
            Some(queues[me].remove(0))
        };
        match chunk {
            Some(index) => {
                let (group, jobs) = &schedule.chunks[index];
                workers[me].run_chunk(*group, jobs, full_cost);
            }
            None => retired[me] = true,
        }
    }
    workers
}

/// Stage 2: the work-stealing schedule must strictly beat the static chunker's
/// worst-worker idle time on the dominant-group matrix.
fn starvation_gate(reference: &ExplorationResults) {
    // Cost model measured off the evaluated points: a full evaluation costs its
    // compiled cell count (every analysis pass is O(cells)).
    let full_cost: Vec<f64> = reference
        .points()
        .iter()
        .map(|point| point.metrics.cell_count as f64)
        .collect();
    let static_schedule = static_chunks(&spec(SIM_THREADS));
    let stealing_schedule = sim_schedule(&spec(SIM_THREADS));
    let static_workers = simulate_static(&static_schedule, &full_cost);
    let stealing_workers = simulate_stealing(&stealing_schedule, &full_cost);
    let static_idle = worst_idle(&static_workers);
    let stealing_idle = worst_idle(&stealing_workers);
    println!(
        "{{\"workload\": \"starvation_dominant_group\", \"jobs\": {}, \"sim_threads\": {}, \
         \"static_chunks\": {}, \"stealing_chunks\": {}, \"static_worst_idle_cells\": {:.1}, \
         \"stealing_worst_idle_cells\": {:.1}, \"idle_reduction\": {:.2}}}",
        full_cost.len(),
        SIM_THREADS,
        static_schedule.len(),
        stealing_schedule.chunks.len(),
        static_idle,
        stealing_idle,
        static_idle / stealing_idle.max(f64::MIN_POSITIVE),
    );
    assert!(
        stealing_idle < static_idle,
        "work-stealing must strictly beat the static chunker's worst-worker idle \
         time on the dominant-group matrix ({stealing_idle:.1} vs {static_idle:.1} \
         cell-units)"
    );
}

fn bench_explore_starvation(criterion: &mut Criterion) {
    let reference = bit_identity_gate();
    starvation_gate(&reference);

    let mut group = criterion.benchmark_group("explore_starvation");
    group.sample_size(10);
    for threads in [1usize, SIM_THREADS] {
        group.bench_function(
            format!("dominant_group_25_jobs_threads_{threads}"),
            |bencher| {
                let spec = spec(threads);
                bencher.iter(|| black_box(explore(&spec).expect("exploration succeeds")))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_explore_starvation);
criterion_main!(benches);
