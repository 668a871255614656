//! `serve_growing`: the explorer's `serve` loop on a Unix socket with a store
//! attached, driven by a closed-loop client that sends its next request only
//! after the previous reply.
//!
//! The store range is that of a profile of `explore --serve` at commit `2b71f8f`,
//! in which a request served from the store slowed from 12 to 53 ms as the store
//! grew from 2.1k to 8.5k records: set-up primes the store to 2,080 records and an
//! episode grows it to 8,416. The request mix (per client, a fixed pattern of
//! fresh sweeps, repeats of the client's last fresh sweep, `sim_activity` sweeps
//! and `{"status":{}}`) is a choice, not a measured traffic mix. Every job of a
//! fresh sweep is new to the store. An episode starts a server on a copy of the
//! primed store and plays the whole sequence, so every episode sees the same store
//! growth whatever the host's speed; the run repeats episodes until its time is up.
//! The plan splits the requests among [`Ctx::clients`] connections; the benchmark
//! runs one, so that request latency does not depend on how two clients happen
//! to interleave on a shared host.

use crate::harness::{percentile, Ctx, Outcome, SplitMix, Stopwatch, CALIBRATION_SAMPLES};
use crate::replay::synth_span;
use crate::trace::{Layer, Tracer};
use dpsyn_baselines::{Flow, FlowSynthesis};
use dpsyn_explore::{
    explore, explore_with_stats, explore_with_store, serve, BiasProfile, ExplorationSpec,
    ExploreError, ResultStore, ServeConfig, ServeResponse, SimActivity, SkewProfile,
};
use dpsyn_sim::{BlockSim, SharedStimulus, ToggleCounter, DEFAULT_BLOCK};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const DEFAULT_SEED: u64 = 7;
/// Requests per episode, shared among the clients. Their 96 fresh sweeps of 48
/// jobs and 24 `sim_activity` sweeps of 6 add 6,336 point and analysis records,
/// growing the 2,080-record primed store to 8,416 records.
const EPISODE_REQUESTS: usize = 192;
/// Episodes an untraced run plays at least, however fast the host.
const MIN_EPISODES: usize = 2;
/// The request kinds each client cycles through.
const PATTERN: [Kind; 8] = [
    Kind::Cold,
    Kind::Cold,
    Kind::Warm,
    Kind::Sim,
    Kind::Cold,
    Kind::Warm,
    Kind::Cold,
    Kind::Status,
];
/// Fixed designs the requests rotate through, by request index (not by seed), so
/// every seed asks for the same amount of work.
const DESIGNS: [&str; 4] = ["x2_x_y", "mixed_poly", "iir", "serial_adapter"];
const SIM_VECTORS: usize = 1024;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Cold,
    Warm,
    Sim,
    Status,
}

#[derive(Clone)]
struct Request {
    kind: Kind,
    line: String,
    /// Index into the sweep specs; `None` for status.
    spec: Option<usize>,
}

/// Every client's request sequence plus the sweep specs they name.
struct Plan {
    clients: Vec<Vec<Request>>,
    specs: Vec<ExplorationSpec>,
    priming_seed: u64,
}

fn design(name: &str) -> dpsyn_designs::Design {
    match name {
        "x2_x_y" => dpsyn_designs::x2_x_y(),
        "mixed_poly" => dpsyn_designs::mixed_poly(),
        "iir" => dpsyn_designs::iir(),
        _ => dpsyn_designs::serial_adapter(),
    }
}

const COLD_FLOWS: [Flow; 5] = [
    Flow::Conventional,
    Flow::CsaOpt,
    Flow::WallaceFixed,
    Flow::FaAot,
    Flow::FaAlp,
];

/// A fresh small sweep: an operand-6 sum plus one fixed design at width 8, two
/// uniform skews × two biases, six flows (48 jobs). A uniform skew redraws every
/// arrival time from the request's seed, so no job is already in the store.
fn cold(seed: u64, name: &str) -> (String, ExplorationSpec) {
    let random = seed % 16 + 1;
    let line = format!(
        "{{\"sources\":[{{\"sum\":6}},{{\"design\":\"{name}\"}}],\"widths\":[8],\
         \"skews\":[2.0,4.0],\"biases\":[\"keep\",0.3],\
         \"flows\":[\"conventional\",\"csa_opt\",\"wallace_fixed\",\"fa_aot\",\"fa_alp\",\
         {{\"fa_random\":{random}}}],\"seed\":{seed},\"threads\":1}}"
    );
    let spec = ExplorationSpec::builder()
        .sum_workload(6)
        .design(design(name))
        .width(8)
        .skews([SkewProfile::Uniform(2.0), SkewProfile::Uniform(4.0)])
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows(COLD_FLOWS)
        .flow(Flow::FaRandom(random))
        .seed(seed)
        .threads(1)
        .build()
        .expect("cold request spec is well-formed");
    (line, spec)
}

/// A simulated-activity sweep: one fixed design, two biases, three flows.
fn sim(seed: u64, name: &str) -> (String, ExplorationSpec) {
    let line = format!(
        "{{\"sources\":[{{\"design\":\"{name}\"}}],\"skews\":[\"keep\"],\
         \"biases\":[\"keep\",0.3],\"flows\":[\"conventional\",\"fa_aot\",\"fa_alp\"],\
         \"seed\":{seed},\"threads\":1,\"sim_activity\":{{\"seed\":{seed},\"vectors\":{SIM_VECTORS}}}}}"
    );
    let spec = ExplorationSpec::builder()
        .design(design(name))
        .skews([SkewProfile::Keep])
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows([Flow::Conventional, Flow::FaAot, Flow::FaAlp])
        .seed(seed)
        .threads(1)
        .sim_activity(SimActivity {
            seed,
            vectors: SIM_VECTORS,
        })
        .build()
        .expect("sim request spec is well-formed");
    (line, spec)
}

fn plan(seed: u64, clients: usize) -> Plan {
    let priming_seed = SplitMix(seed).next() % 1_000_000_000;
    let mut next_seed = priming_seed;
    let mut specs = Vec::new();
    let mut sequences = Vec::new();
    for client in 0..clients {
        let mut sequence: Vec<Request> = Vec::new();
        let mut last_cold: Option<Request> = None;
        for index in 0..EPISODE_REQUESTS / clients {
            let name = DESIGNS[(client + index) % DESIGNS.len()];
            let request = match PATTERN[index % PATTERN.len()] {
                Kind::Status => Request {
                    kind: Kind::Status,
                    line: "{\"status\":{}}".to_string(),
                    spec: None,
                },
                Kind::Warm => Request {
                    kind: Kind::Warm,
                    ..last_cold
                        .clone()
                        .expect("the pattern starts with a cold sweep")
                },
                kind => {
                    next_seed += 1;
                    let (line, spec) = if kind == Kind::Cold {
                        cold(next_seed, name)
                    } else {
                        sim(next_seed, name)
                    };
                    specs.push(spec);
                    Request {
                        kind,
                        line,
                        spec: Some(specs.len() - 1),
                    }
                }
            };
            if request.kind == Kind::Cold {
                last_cold = Some(request.clone());
            }
            sequence.push(request);
        }
        sequences.push(sequence);
    }
    Plan {
        clients: sequences,
        specs,
        priming_seed,
    }
}

/// The sweep that fills the store during set-up to 2,080 records: the request
/// designs, x² and two sum workloads at widths 8 to 14, five skews × four biases,
/// six flows.
fn priming_spec(seed: u64, threads: usize, store: &Path) -> ExplorationSpec {
    ExplorationSpec::builder()
        .sum_workload(6)
        .sum_workload(7)
        .designs(DESIGNS.iter().map(|name| design(name)))
        .design(dpsyn_designs::x_squared())
        .widths([8, 10, 12, 14])
        .skews([
            SkewProfile::Keep,
            SkewProfile::Uniform(1.0),
            SkewProfile::Uniform(2.0),
            SkewProfile::Uniform(3.0),
            SkewProfile::Uniform(4.0),
        ])
        .biases([
            BiasProfile::Keep,
            BiasProfile::Uniform(0.1),
            BiasProfile::Uniform(0.2),
            BiasProfile::Uniform(0.4),
        ])
        .flows(COLD_FLOWS)
        .flow(Flow::FaRandom(3))
        .seed(seed)
        .threads(threads)
        .store(store)
        .build()
        .expect("priming spec is well-formed")
}

struct Paths {
    primed: PathBuf,
    live: PathBuf,
    socket: PathBuf,
    /// The stores the traced and the untraced replay grow.
    replayed: [PathBuf; 2],
}

fn fresh_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(dpsyn_explore::quarantine_path(path));
}

fn start_server(paths: &Paths) -> std::io::Result<JoinHandle<Result<(), ExploreError>>> {
    fresh_store(&paths.live);
    std::fs::copy(&paths.primed, &paths.live)?;
    let mut config = ServeConfig::new(paths.socket.clone());
    config.store_path = Some(paths.live.clone());
    Ok(std::thread::spawn(move || serve(&config)))
}

/// Connects to the server, which binds asynchronously after its thread starts.
fn connect(socket: &Path) -> Result<UnixStream, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(socket) {
            Ok(stream) => return Ok(stream),
            Err(error) if Instant::now() >= deadline => {
                return Err(format!("cannot connect to {}: {error}", socket.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One client connection: a line writer and a buffered line reader.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn open(socket: &Path) -> Result<Client, String> {
        let writer = connect(socket)?;
        let reader = BufReader::new(writer.try_clone().map_err(|error| error.to_string())?);
        Ok(Client { writer, reader })
    }

    /// Sends one request line and waits for the full reply line; returns the
    /// client-side latency in ms and the raw reply.
    fn call(&mut self, line: &str) -> Result<(f64, String), String> {
        let watch = Stopwatch::start();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|error| error.to_string())?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|error| error.to_string())?;
        let ms = watch.ms();
        if reply.is_empty() {
            return Err("the server closed the connection".to_string());
        }
        Ok((ms, reply))
    }
}

fn stop_server(socket: &Path, server: JoinHandle<Result<(), ExploreError>>) -> Result<(), String> {
    let acknowledged = Client::open(socket)
        .and_then(|mut client| client.call("{\"shutdown\":true}"))
        .and_then(|(_, reply)| ServeResponse::parse(&reply).map_err(|error| error.to_string()));
    match acknowledged {
        Ok(ack) if ack.shutdown => server
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|error| error.to_string()),
        // Joining a server that never took the shutdown would hang; the run
        // fails instead and the thread ends with the process.
        Ok(_) => Err("shutdown was not acknowledged".to_string()),
        Err(error) => Err(error),
    }
}

/// One reply as a client saw it.
struct Reply {
    client: usize,
    index: usize,
    ms: f64,
    response: Result<ServeResponse, String>,
}

/// Plays every client's sequence once against a fresh server; returns the
/// replies and the episode's wall time in seconds (first send to last reply).
fn episode(paths: &Paths, plan: &Plan) -> Result<(Vec<Reply>, f64), String> {
    let server = start_server(paths).map_err(|error| error.to_string())?;
    let mut clients = Vec::new();
    for _ in &plan.clients {
        match Client::open(&paths.socket) {
            Ok(client) => clients.push(client),
            Err(error) => {
                let _ = stop_server(&paths.socket, server);
                return Err(error);
            }
        }
    }
    let watch = Stopwatch::start();
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&plan.clients)
            .enumerate()
            .map(|(client_index, (mut client, sequence))| {
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    for (index, request) in sequence.iter().enumerate() {
                        let (ms, response) = match client.call(&request.line) {
                            Ok((ms, raw)) => (
                                ms,
                                ServeResponse::parse(&raw).map_err(|error| error.to_string()),
                            ),
                            Err(error) => (0.0, Err(error)),
                        };
                        let broken = response.is_err();
                        replies.push(Reply {
                            client: client_index,
                            index,
                            ms,
                            response,
                        });
                        if broken {
                            break;
                        }
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = watch.seconds();
    stop_server(&paths.socket, server)?;
    Ok((replies, wall_s))
}

/// Set-up: plan the requests, prime the store, start a server and connect.
fn set_up(ctx: &Ctx, seed: u64, paths: &Paths) -> Result<Plan, String> {
    let plan = plan(seed, ctx.clients);
    fresh_store(&paths.primed);
    let (results, _) =
        explore_with_stats(&priming_spec(plan.priming_seed, ctx.threads, &paths.primed))
            .map_err(|error| error.to_string())?;
    if !results.quarantined().is_empty() {
        return Err("a priming job was quarantined".to_string());
    }
    let server = start_server(paths).map_err(|error| error.to_string())?;
    let opened: Result<Vec<Client>, String> = (0..ctx.clients)
        .map(|_| Client::open(&paths.socket))
        .collect();
    stop_server(&paths.socket, server)?;
    opened.map(|_| plan)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed.unwrap_or(DEFAULT_SEED);
    let paths = Paths {
        primed: ctx.work.join("serve_primed.store"),
        live: ctx.work.join("serve_live.store"),
        // `work` is relative to the checkout: socket paths are limited to ~100 bytes.
        socket: ctx.work.join("serve.sock"),
        replayed: [
            ctx.work.join("serve_traced.store"),
            ctx.work.join("serve_untraced.store"),
        ],
    };
    let mut out = Outcome::default();
    let (plan, setups) = match ctx.set_up(&mut || set_up(ctx, seed, &paths)) {
        Ok(done) => done,
        Err(error) => {
            out.check(false, || format!("set-up failed: {error}"));
            return out;
        }
    };

    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut op_ms = Vec::new();
    let mut by_kind: Vec<(Kind, f64)> = Vec::new();
    let (mut jobs, mut busy_s) = (0.0, 0.0);
    // Per client and request, the summary of the first episode's reply.
    let mut first: Vec<Vec<Option<String>>> = plan
        .clients
        .iter()
        .map(|sequence| vec![None; sequence.len()])
        .collect();
    let mut last_status = None;
    let mut episodes = 0;
    let started = Instant::now();
    while ctx.keep_going(started, budget, op_ms.len())
        || (!ctx.smoke && !ctx.trace && episodes < MIN_EPISODES)
    {
        episodes += 1;
        let (replies, wall_s) = match episode(&paths, &plan) {
            Ok(played) => played,
            Err(error) => {
                out.attempted += 1;
                out.check(false, || format!("episode failed: {error}"));
                break;
            }
        };
        busy_s += wall_s;
        out.calibrate(CALIBRATION_SAMPLES);
        for reply in replies {
            out.attempted += 1;
            let request = &plan.clients[reply.client][reply.index];
            let response = match reply.response {
                Ok(response) => response,
                Err(error) => {
                    out.check(false, || format!("request failed: {error}"));
                    continue;
                }
            };
            op_ms.push(reply.ms);
            by_kind.push((request.kind, reply.ms));
            if request.kind == Kind::Status {
                out.check(response.ok && response.status.is_some(), || {
                    format!("status request answered {:?}", response.error)
                });
                last_status = response.status;
                continue;
            }
            jobs += response.jobs as f64;
            let healthy = response.ok
                && response.reject.is_empty()
                && response.quarantined == 0
                && response.store == "ok"
                && match request.kind {
                    Kind::Cold => response.store_hits == 0,
                    Kind::Warm => response.store_hits == response.jobs,
                    _ => true,
                };
            out.check(healthy, || {
                format!(
                    "{:?} request: ok={} reject={:?} quarantined={} store={} hits={}/{} {}",
                    request.kind,
                    response.ok,
                    response.reject,
                    response.quarantined,
                    response.store,
                    response.store_hits,
                    response.jobs,
                    response.error
                )
            });
            if let Some(summary) = &first[reply.client][reply.index] {
                out.check(*summary == response.summary, || {
                    format!("{:?} reply differs from the first episode's", request.kind)
                });
            } else {
                first[reply.client][reply.index] = Some(response.summary);
            }
        }
    }
    out.end_to_end(&op_ms, jobs, busy_s, &setups);

    // Each reply equals a batch run of the same spec (checked once per spec).
    let mut checked = vec![false; plan.specs.len()];
    for (client, sequence) in plan.clients.iter().enumerate() {
        for (index, request) in sequence.iter().enumerate() {
            let (Some(spec), Some(summary)) = (request.spec, &first[client][index]) else {
                continue;
            };
            if std::mem::replace(&mut checked[spec], true) {
                continue;
            }
            let batch = explore(&plan.specs[spec]).map(|results| results.render_summary());
            out.check(batch.as_ref().ok() == Some(summary), || {
                format!("a {:?} reply differs from batch `explore`", request.kind)
            });
        }
    }

    if ctx.trace {
        let p50 = |kind: Kind| {
            let times: Vec<f64> = by_kind
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, ms)| *ms)
                .collect();
            percentile(&times, 0.5)
        };
        out.set("serve.cold_req_ms", p50(Kind::Cold));
        out.set("serve.warm_req_ms", p50(Kind::Warm));
        out.set("serve.sim_req_ms", p50(Kind::Sim));
        if let Some(status) = last_status {
            out.set("serve.hit_rate", status.hit_rate);
            let rejects =
                status.rejected_overload + status.rejected_oversized + status.rejected_deadline;
            out.set("serve.rejects", rejects as f64);
        }
        replay_phase(ctx, &plan, &paths, budget, &op_ms, &mut out);
    }
    out
}

/// The traced replay: the episode's requests in send order, each through the
/// serve sequence (snapshot, `explore_with_store`, merge, flush) under spans. The
/// traced and the untraced recorder each grow a store of their own, reloaded from
/// the primed one whenever the order starts over.
fn replay_phase(
    ctx: &Ctx,
    plan: &Plan,
    paths: &Paths,
    budget: f64,
    op_ms: &[f64],
    out: &mut Outcome,
) {
    let longest = plan.clients.iter().map(Vec::len).max().unwrap_or(0);
    let order: Vec<&Request> = (0..longest)
        .flat_map(|index| {
            plan.clients
                .iter()
                .filter_map(move |sequence| sequence.get(index))
        })
        .collect();
    let mut stores: [Option<ResultStore>; 2] = [None, None];
    let mut next = [0; 2];
    // Store size after each traced flush, in flush order.
    let mut flushed_records = Vec::new();
    let mut totals = Replayed::default();
    // The largest store the traced replay grew: the episode's end.
    let mut records = 0.0;
    let traced = crate::contract::replay(ctx, budget, order.len(), op_ms, out, |tr| {
        let lane = usize::from(!tr.enabled());
        if next[lane] == 0 {
            let path = &paths.replayed[lane];
            fresh_store(path);
            std::fs::copy(&paths.primed, path).map_err(|error| error.to_string())?;
            let loaded = tr.time("store.load", Layer::Store, || ResultStore::load(path));
            stores[lane] = Some(loaded.map_err(|error| error.to_string())?);
        }
        let request = order[next[lane]];
        next[lane] = (next[lane] + 1) % order.len();
        let store = stores[lane]
            .as_mut()
            .ok_or("the primed store did not load")?;
        let replayed = replay_request(tr, plan, request, store)?;
        if tr.enabled() {
            if request.spec.is_some() {
                flushed_records.push(store.len() as f64);
            }
            totals.add(&replayed);
            records = f64::max(records, store.len() as f64);
        }
        Ok(())
    });
    let flushes: Vec<(f64, f64)> = flushed_records
        .into_iter()
        .zip(traced.durations_ms("store.flush"))
        .collect();
    let requests = f64::from(traced.ops().max(1));
    out.set("store.records", records);
    let bytes = std::fs::metadata(&paths.replayed[0]).map_or(0.0, |meta| meta.len() as f64);
    out.set("store.file_bytes", bytes);
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    out.set("store.hit_ratio", ratio(totals.hits, totals.jobs));
    out.set("explore.store_hits", totals.hits / requests);
    out.set("sim.builds", totals.builds / requests);
    out.set("sim.reuses", totals.reuses / requests);
    let sim_s = traced.total_ms("sim.block") / 1e3;
    out.set("sim.vectors_per_s", ratio(totals.vectors, sim_s));
    out.set("store.flush_ms_per_krecord", slope(&flushes) * 1e3);
}

/// What replayed requests did.
#[derive(Default)]
struct Replayed {
    jobs: f64,
    hits: f64,
    vectors: f64,
    builds: f64,
    reuses: f64,
}

impl Replayed {
    fn add(&mut self, other: &Replayed) {
        self.jobs += other.jobs;
        self.hits += other.hits;
        self.vectors += other.vectors;
        self.builds += other.builds;
        self.reuses += other.reuses;
    }
}

fn replay_request(
    tr: &mut Tracer,
    plan: &Plan,
    request: &Request,
    store: &mut ResultStore,
) -> Result<Replayed, String> {
    let Some(spec) = request.spec.map(|index| &plan.specs[index]) else {
        tr.time("serve.status", Layer::Serve, || store.health());
        return Ok(Replayed::default());
    };
    let snapshot = tr.time("store.snapshot", Layer::Store, || store.clone());
    let run = tr.begin("explore.run", Layer::Explore);
    let explored = explore_with_store(spec, Some(&snapshot));
    tr.end(run);
    let (results, stats, fresh) = explored.map_err(|error| error.to_string())?;
    if !results.quarantined().is_empty() {
        return Err("a job was quarantined".to_string());
    }
    tr.time("store.merge", Layer::Store, || store.merge(fresh));
    tr.time("store.flush", Layer::Store, || store.flush())
        .map_err(|error| error.to_string())?;
    let mut replayed = Replayed {
        jobs: spec.jobs().len() as f64,
        hits: stats.total_store_hits() as f64,
        builds: stats.total_sim_builds() as f64,
        reuses: stats.total_sim_reuses() as f64,
        vectors: 0.0,
    };
    if let Some(activity) = spec.sim_activity() {
        replayed.vectors = replay_sim(tr, spec, activity, run)?;
    }
    Ok(replayed)
}

/// Re-runs the block simulation of every point of a simulated sweep: synthesis,
/// then `BlockSim` compile and evaluate over the shared stimulus batch. Both stand
/// in for work the real run did inside `explore_with_store`.
fn replay_sim(
    tr: &mut Tracer,
    spec: &ExplorationSpec,
    activity: SimActivity,
    run: crate::trace::SpanId,
) -> Result<f64, String> {
    let mut vectors = 0.0;
    for job in spec.jobs() {
        let design = spec.materialize(&job);
        let (name, layer) = synth_span(job.flow());
        let synthesized = tr
            .time_within(name, layer, run, || {
                job.flow().synthesize(
                    design.expr(),
                    design.spec(),
                    design.output_width(),
                    spec.tech(),
                )
            })
            .map_err(|error| error.to_string())?;
        let (netlist, word_map) = match synthesized {
            FlowSynthesis::Unanalyzed(parts) => (parts.netlist, parts.word_map),
            FlowSynthesis::Analyzed(result) => (result.netlist, result.word_map),
        };
        let block = tr.begin_within("sim.block", Layer::Sim, run);
        let simulated = BlockSim::compile(&netlist, DEFAULT_BLOCK).map(|sim| {
            let stimulus = SharedStimulus::generate(
                activity.seed,
                design.spec().total_bits() as usize,
                activity.vectors,
            );
            let assignments = stimulus.biased_assignments(design.spec());
            let mut counter = ToggleCounter::new(sim.net_count());
            let mut blocks = sim.block_buffer();
            for chunk in assignments.chunks(sim.vectors_per_pass()) {
                sim.pack_word_assignments(&word_map, chunk, &mut blocks);
                sim.evaluate_into(&mut blocks);
                counter.record_blocks(&blocks, sim.block(), chunk.len());
            }
            counter
        });
        tr.end(block);
        std::hint::black_box(simulated.map_err(|error| error.to_string())?);
        vectors += activity.vectors as f64;
    }
    Ok(vectors)
}

/// Least-squares slope of `y` over `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean_x = points.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / n;
    let covariance: f64 = points
        .iter()
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let variance: f64 = points.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    if variance > 0.0 {
        covariance / variance
    } else {
        0.0
    }
}
