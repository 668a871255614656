//! What every workload shares: the run context, the measured-loop policy, the
//! outcome tally and the end-to-end statistics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Ops a measured loop collects at least, so that p90 has ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;
/// Hard stop of a measured loop, well inside the 180 s a run may take.
pub const MAX_MEASURE_S: f64 = 110.0;
/// Set-ups a run times at least before its first op; `setup_s` is the median of
/// all it times. A quick set-up is repeated until [`SETUP_BUDGET_S`] is spent or
/// [`MAX_SETUP_REPS`] are timed.
pub const SETUP_REPS: usize = 3;
pub const SETUP_BUDGET_S: f64 = 0.2;
pub const MAX_SETUP_REPS: usize = 100;
/// A set-up shorter than this is timed [`RESAMPLES`] more times after every op
/// (see [`resample_set_up`]).
pub const RESAMPLE_BELOW_S: f64 = 1e-3;
pub const RESAMPLES: usize = 10;
/// The calibration kernel's time on the host every reported time refers to
/// (see [`Outcome::calibrate`]).
pub const REFERENCE_KERNEL_MS: f64 = 10.0;
/// Kernel runs between two serve episodes, and in a run that timed none.
pub const CALIBRATION_SAMPLES: usize = 10;

/// One run's settings, as parsed from the command line.
#[derive(Clone)]
pub struct Ctx {
    /// Workload seed; `None` selects the seed the shipped binaries use.
    pub seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
    /// One op per workload and one set-up, for the benchmark's own smoke test.
    pub smoke: bool,
    /// The host's cores (`nproc`).
    pub cores: usize,
    /// Worker threads of a measured exploration: one, so that a busy neighbour
    /// on a shared host slows one core's work rather than stalling a parallel
    /// sweep on its slowest worker.
    pub threads: usize,
    /// Concurrent serve clients: one, for the same reason.
    pub clients: usize,
    /// Scratch directory inside the checkout (store files, socket, spans).
    pub work: PathBuf,
}

impl Ctx {
    /// Runs a workload's set-up once in smoke mode, else at least [`SETUP_REPS`]
    /// times and until [`SETUP_BUDGET_S`] is spent (at most [`MAX_SETUP_REPS`]).
    /// Returns the last set-up's value and every set-up's time in seconds, or the
    /// first error.
    pub fn set_up<T, E>(
        &self,
        set_up: &mut impl FnMut() -> Result<T, E>,
    ) -> Result<(T, Vec<f64>), E> {
        let mut times = Vec::new();
        loop {
            let watch = Stopwatch::start();
            let value = set_up()?;
            times.push(watch.seconds());
            let spent: f64 = times.iter().sum();
            if self.smoke
                || times.len() >= MAX_SETUP_REPS
                || (times.len() >= SETUP_REPS && spent >= SETUP_BUDGET_S)
            {
                return Ok((value, times));
            }
        }
    }

    /// Whether a measured loop started at `started`, with `samples` ops so far,
    /// goes on: until `budget_s` has passed and, for untraced runs, at least
    /// [`MIN_SAMPLES`] ops were timed.
    pub fn keep_going(&self, started: Instant, budget_s: f64, samples: usize) -> bool {
        if self.smoke {
            return samples == 0;
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= MAX_MEASURE_S {
            return false;
        }
        elapsed < budget_s || (!self.trace && samples < MIN_SAMPLES)
    }
}

/// Between two ops, times [`RESAMPLES`] more set-ups when the last one took
/// under [`RESAMPLE_BELOW_S`]. A shared host's speed drifts within a second, so
/// microsecond set-ups timed in one burst before the first op report whatever
/// the host did at that moment; samples spread over the whole run give a steady
/// median. The set-ups' values are dropped.
pub fn resample_set_up<T, E>(times: &mut Vec<f64>, set_up: &mut impl FnMut() -> Result<T, E>) {
    if times.last().map_or(true, |last| *last >= RESAMPLE_BELOW_S) {
        return;
    }
    for _ in 0..RESAMPLES {
        let watch = Stopwatch::start();
        let value = set_up();
        times.push(watch.seconds());
        drop(value);
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Ops that failed (error, quarantined job, rejected reply, failed check).
    pub failed: u64,
    /// Metric values by contract name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Times of the calibration kernel (ms), taken between ops.
    pub kernel_ms: Vec<f64>,
}

impl Outcome {
    /// Records a check; a failure counts as one failed op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
        ok
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Times the calibration kernel `samples` times, between ops.
    ///
    /// The reference host's speed steps by up to 2x within minutes as other
    /// guests come and go, with no steal to show for it: in back-to-back
    /// `sweep_cold` runs the median op went from 59 to 123 ms between one run
    /// and the next. The kernel slows with the workloads (an allocation- and
    /// pointer-heavy map build; a plain arithmetic loop slowed by a third as
    /// much), so every time a run reports is scaled by [`REFERENCE_KERNEL_MS`]
    /// over the run's median kernel time.
    pub fn calibrate(&mut self, samples: usize) {
        for _ in 0..samples {
            let watch = Stopwatch::start();
            std::hint::black_box(calibration_kernel());
            self.kernel_ms.push(watch.ms());
        }
    }

    /// Fills the end-to-end metrics from the measured op times (ms), the jobs
    /// they completed over `busy_s` seconds, and the set-up times (s), all
    /// scaled to the reference host (see [`Outcome::calibrate`]).
    pub fn end_to_end(&mut self, op_ms: &[f64], jobs: f64, busy_s: f64, setup_s: &[f64]) {
        if self.kernel_ms.is_empty() {
            self.calibrate(CALIBRATION_SAMPLES);
        }
        let kernel_ms = percentile(&self.kernel_ms, 0.5);
        let scale = REFERENCE_KERNEL_MS / kernel_ms;
        eprintln!(
            "perfbench: measured op p50 {:.3} ms, p90 {:.3} ms, set-up {:.6} s; \
             calibration kernel {kernel_ms:.3} ms (median of {}), scale {scale:.4}",
            percentile(op_ms, 0.5),
            percentile(op_ms, 0.9),
            percentile(setup_s, 0.5),
            self.kernel_ms.len(),
        );
        self.set("op_p50_ms", percentile(op_ms, 0.5) * scale);
        self.set("op_p90_ms", percentile(op_ms, 0.9) * scale);
        let busy_s = busy_s * scale;
        self.set("jobs_per_s", if busy_s > 0.0 { jobs / busy_s } else { 0.0 });
        self.set("setup_s", percentile(setup_s, 0.5) * scale);
        self.set("peak_rss_mb", peak_rss_mb());
    }
}

/// The `q` quantile of `values` by linear interpolation between order statistics
/// (the median for `q = 0.5`); 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timer of every measured op and set-up: wall-clock time less the time
/// the hypervisor ran other guests on this machine's cores ("steal"). On a
/// shared host the steal within one op swings from nothing to a fifth of it
/// with the neighbours' load; it is not time the program spent.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
    steal_s: f64,
    cores: f64,
}

impl Stopwatch {
    /// A stopwatch for work that keeps one core busy; an idle core accrues no
    /// steal.
    pub fn start() -> Stopwatch {
        Stopwatch::start_on(1)
    }

    /// A stopwatch for work spread evenly over `cores` busy cores. The steal
    /// counter sums all cores, so the wall time the work lost is the steal
    /// over `cores`.
    pub fn start_on(cores: usize) -> Stopwatch {
        let steal_s = steal_s();
        Stopwatch {
            start: Instant::now(),
            steal_s,
            cores: cores.max(1) as f64,
        }
    }

    /// Seconds since the start, less the steal since then. The kernel reports
    /// steal in 10 ms ticks, so one reading is off by up to a tick either way;
    /// a reading below 0 is clamped to 0.
    pub fn seconds(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        (wall - (steal_s() - self.steal_s) / self.cores).max(0.0)
    }

    pub fn ms(&self) -> f64 {
        self.seconds() * 1e3
    }
}

/// Steal time of all cores since boot in seconds: the eighth value of the `cpu`
/// line of `/proc/stat`, in ticks of 1/100 s; 0 where unavailable.
fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|ticks| ticks.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The calibration work: a 60,000-entry ordered map of small vectors, built from
/// fixed keys, walked once and dropped. It belongs to the benchmark, so no change
/// to the libraries can move it.
fn calibration_kernel() -> usize {
    let mut rng = SplitMix(7);
    let mut map = BTreeMap::new();
    for _ in 0..60_000 {
        let x = rng.next();
        map.insert(x >> 20, vec![x as u32; (x % 7) as usize]);
    }
    map.iter().fold(0, |acc: usize, (key, value)| {
        acc.wrapping_add(*key as usize ^ value.len())
    })
}

/// A small deterministic generator (splitmix64) for workload inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
