//! Long-lived exploration service over a Unix domain socket. The wire protocol,
//! the shared-store rules and the degraded mode are documented on [`serve`], so
//! they show in `cargo doc`.

use crate::engine::explore_with_store;
use crate::error::ExploreError;
use crate::faults::FaultPlan;
use crate::metrics::{ServeMetrics, ServeStatus};
use crate::spec::{BiasProfile, ExplorationSpec, SimActivity, SkewProfile};
use crate::store::ResultStore;
use dpsyn_baselines::Flow;
use dpsyn_designs::Design;
use dpsyn_tech::TechLibrary;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long the accept loop and connection reads sleep/block between shutdown
/// checks. Short enough for prompt drain, long enough to stay off the CPU.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Configuration of one [`serve`] call. Build the common shape with
/// [`ServeConfig::new`] and override fields as needed; the robustness knobs
/// (line cap, admission cap, deadlines) default to generous production values.
/// The wire protocol these fields bound, and how requests share the store at
/// `store_path`, are documented on [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path of the Unix domain socket to listen on (an existing socket file at
    /// this path is replaced).
    pub socket: PathBuf,
    /// Memo file of the shared persistent store; `None` serves from a process-
    /// lifetime in-memory store instead.
    pub store_path: Option<PathBuf>,
    /// Longest accepted request line in bytes (newline excluded). A longer line
    /// — or a lineless byte stream growing past the cap — is rejected with a
    /// typed `oversized` response and the connection is closed, bounding the
    /// memory a garbage-spewing client can pin.
    pub max_line_bytes: usize,
    /// Sweeps allowed to execute concurrently. The request that would exceed the
    /// cap is shed immediately with a typed `overloaded` response (the client
    /// retries; the server never queues unbounded work).
    pub max_in_flight: usize,
    /// How long a *partial* request line may sit without its newline before the
    /// connection is rejected with a typed `deadline` response — a slow-loris
    /// client cannot park forever.
    pub read_deadline: Duration,
    /// Write timeout on every response, so a client that stops draining cannot
    /// wedge a connection thread.
    pub write_deadline: Duration,
    /// Fault-injection plan threaded through the server's store (load and every
    /// flush) and every sweep it runs; `None` in production. See [`crate::faults`].
    pub faults: Option<Arc<FaultPlan>>,
}

impl ServeConfig {
    /// A config listening on `socket` with no store file and default robustness
    /// knobs: 1 MiB line cap, 8 concurrent sweeps, 10 s read/write deadlines.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            store_path: None,
            max_line_bytes: 1 << 20,
            max_in_flight: 8,
            read_deadline: Duration::from_secs(10),
            write_deadline: Duration::from_secs(10),
            faults: None,
        }
    }
}

/// Everything a connection thread needs, shared once per [`serve`] call.
struct Shared {
    /// The current store version; requests snapshot it by `Arc` clone.
    store: Mutex<Arc<ResultStore>>,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    config: ServeConfig,
    /// Whether a store file is configured (`"none"` vs `"ok"`/`"degraded"` in
    /// responses).
    store_attached: bool,
}

/// One parsed response line of the [`serve`] protocol; the [`serve`] docs list
/// its fields.
#[derive(Debug, Clone, Default)]
pub struct ServeResponse {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Jobs the request's matrix enumerated.
    pub jobs: usize,
    /// Points the exploration returned.
    pub points: usize,
    /// Jobs served straight from the shared store.
    pub store_hits: usize,
    /// Jobs quarantined after every evaluation attempt panicked.
    pub quarantined: usize,
    /// Store state of the answering server: `"ok"`, `"degraded"` (flushes
    /// failing, compute-through) or `"none"` (no store file configured).
    pub store: String,
    /// The rendered summary (byte-identical to a batch run of the same spec).
    pub summary: String,
    /// The error message when `ok` is false.
    pub error: String,
    /// Machine-readable shed kind when the server rejected rather than failed
    /// the request: `"overloaded"`, `"oversized"` or `"deadline"` (empty on
    /// failures and successes).
    pub reject: String,
    /// Whether this response acknowledges a shutdown request.
    pub shutdown: bool,
    /// The server status snapshot, on `{"status":{}}` responses only.
    pub status: Option<ServeStatus>,
}

impl ServeResponse {
    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Serve`] when the line is not a response object.
    pub fn parse(line: &str) -> Result<ServeResponse, ExploreError> {
        let value = parse_json(line).map_err(|message| ExploreError::Serve {
            message: format!("malformed response line: {message}"),
        })?;
        let Json::Object(fields) = value else {
            return Err(ExploreError::Serve {
                message: "response line is not a JSON object".to_string(),
            });
        };
        let mut response = ServeResponse::default();
        for (key, value) in &fields {
            match key.as_str() {
                "ok" => response.ok = value.as_bool().unwrap_or(false),
                "jobs" => response.jobs = value.as_usize().unwrap_or(0),
                "points" => response.points = value.as_usize().unwrap_or(0),
                "store_hits" => response.store_hits = value.as_usize().unwrap_or(0),
                "quarantined" => response.quarantined = value.as_usize().unwrap_or(0),
                "store" => response.store = value.as_str().unwrap_or("").to_string(),
                "summary" => response.summary = value.as_str().unwrap_or("").to_string(),
                "error" => response.error = value.as_str().unwrap_or("").to_string(),
                "reject" => response.reject = value.as_str().unwrap_or("").to_string(),
                "shutdown" => response.shutdown = value.as_bool().unwrap_or(false),
                "status" => {
                    if let Json::Object(entries) = value {
                        response.status = Some(parse_status(entries));
                    }
                }
                _ => {}
            }
        }
        Ok(response)
    }

    fn render(&self) -> String {
        if self.shutdown {
            return "{\"ok\":true,\"shutdown\":true}".to_string();
        }
        if let Some(status) = &self.status {
            return format!(
                "{{\"ok\":true,\"status\":{{\"requests\":{},\"completed\":{},\
                 \"in_flight\":{},\"queue_depth\":{},\"rejected_overload\":{},\
                 \"rejected_oversized\":{},\"rejected_deadline\":{},\"jobs\":{},\
                 \"store_hits\":{},\"hit_rate\":{:.6},\"store\":\"{}\",\
                 \"records\":{},\"damaged_lines\":{},\"quarantined\":{}}}}}",
                status.requests,
                status.completed,
                status.in_flight,
                status.queue_depth,
                status.rejected_overload,
                status.rejected_oversized,
                status.rejected_deadline,
                status.jobs,
                status.store_hits,
                status.hit_rate,
                escape_json(&status.store),
                status.records,
                status.damaged_lines,
                status.quarantined,
            );
        }
        if self.ok {
            format!(
                "{{\"ok\":true,\"jobs\":{},\"points\":{},\"store_hits\":{},\
                 \"quarantined\":{},\"store\":\"{}\",\"summary\":\"{}\"}}",
                self.jobs,
                self.points,
                self.store_hits,
                self.quarantined,
                escape_json(&self.store),
                escape_json(&self.summary)
            )
        } else if self.reject.is_empty() {
            format!(
                "{{\"ok\":false,\"error\":\"{}\"}}",
                escape_json(&self.error)
            )
        } else {
            format!(
                "{{\"ok\":false,\"reject\":\"{}\",\"error\":\"{}\"}}",
                escape_json(&self.reject),
                escape_json(&self.error)
            )
        }
    }
}

/// Decodes the `status` object of a status response.
fn parse_status(entries: &[(String, Json)]) -> ServeStatus {
    let mut status = ServeStatus::default();
    for (key, value) in entries {
        match key.as_str() {
            "requests" => status.requests = value.as_u64().unwrap_or(0),
            "completed" => status.completed = value.as_u64().unwrap_or(0),
            "in_flight" => status.in_flight = value.as_u64().unwrap_or(0),
            "queue_depth" => status.queue_depth = value.as_u64().unwrap_or(0),
            "rejected_overload" => status.rejected_overload = value.as_u64().unwrap_or(0),
            "rejected_oversized" => status.rejected_oversized = value.as_u64().unwrap_or(0),
            "rejected_deadline" => status.rejected_deadline = value.as_u64().unwrap_or(0),
            "jobs" => status.jobs = value.as_u64().unwrap_or(0),
            "store_hits" => status.store_hits = value.as_u64().unwrap_or(0),
            "hit_rate" => status.hit_rate = value.as_number().unwrap_or(0.0),
            "store" => status.store = value.as_str().unwrap_or("").to_string(),
            "records" => status.records = value.as_u64().unwrap_or(0),
            "damaged_lines" => status.damaged_lines = value.as_u64().unwrap_or(0),
            "quarantined" => status.quarantined = value.as_u64().unwrap_or(0),
            _ => {}
        }
    }
    status
}

fn serve_error(message: impl std::fmt::Display) -> ExploreError {
    ExploreError::Serve {
        message: message.to_string(),
    }
}

/// A poisoned store lock only means another request thread panicked *between*
/// merge steps; the store itself is always in a consistent state (merge is
/// per-record), so serving continues with the data as-is.
fn lock_store(store: &Mutex<Arc<ResultStore>>) -> MutexGuard<'_, Arc<ResultStore>> {
    store
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs the exploration server until a client sends `{"shutdown":true}`: binds the
/// socket, serves each connection on its own thread against the shared store, then
/// drains every in-flight request, flushes the store and removes the socket file.
///
/// `explore --serve <socket>` (see the `dpsyn-bench` binary) turns the exploration
/// engine into a server: clients connect to the socket and speak a newline-delimited
/// JSON protocol — one request line per [`ExplorationSpec`], one response line back —
/// while every request shares the **same** persistent [`ResultStore`], so repeated
/// or overlapping sweeps from any number of clients collapse to warm lookups.
///
/// # Protocol
///
/// A request is one JSON object on one line:
///
/// ```json
/// {"sources":[{"design":"x_squared"},{"sum":3}],"widths":[4],
///  "skews":["keep",2.0],"biases":["keep"],
///  "flows":["conventional","csa_opt",{"fa_random":11}],
///  "seed":7,"threads":2,"tech":"lcbg10pv_like",
///  "sim_activity":{"seed":11,"vectors":4096}}
/// ```
///
/// Every field maps straight onto the [`ExplorationSpec`] builder; unknown fields
/// are rejected (a typo must not silently change the sweep). The optional
/// `sim_activity` object requests the simulated switching metric
/// ([`SimActivity`]): it must carry exactly an integer `seed` and a `vectors`
/// count, and any malformed combination (missing half, unknown extra field, a
/// vector count below 2) is rejected with a typed reason. `{"shutdown":true}`
/// asks the server to stop: it finishes every in-flight request, takes no new
/// connections, flushes the store one final time and removes the socket file.
///
/// The response is one JSON object on one line:
///
/// ```json
/// {"ok":true,"jobs":24,"points":24,"store_hits":18,"summary":"..."}
/// ```
///
/// with `summary` the full [`render_summary`](crate::ExplorationResults::render_summary)
/// text (byte-identical to a batch run of the same spec), `store` the store state
/// (`"ok"`, `"degraded"` or `"none"`) and `quarantined` the count of jobs whose
/// every evaluation attempt panicked; or `{"ok":false,"error":"..."}` when the
/// request is malformed or the run fails. A request the server *sheds* (rather
/// than fails) additionally carries a machine-readable `reject` kind:
/// `{"ok":false,"reject":"overloaded","error":"..."}` — kinds are `overloaded`
/// (the in-flight admission cap is reached), `oversized` (a request line exceeds
/// the byte cap) and `deadline` (a partial line sat unfinished past the read
/// deadline; the latter two also close the connection). `{"status":{}}` bypasses
/// admission and answers the server's [`ServeStatus`] — request/rejection
/// counters, in-flight sweeps, queue depth, store hit-rate and store health — as
/// `{"ok":true,"status":{...}}`. Responses are produced by [`ServeResponse`]'s
/// writer and parsed back by [`ServeResponse::parse`], so clients need no JSON
/// library either.
///
/// # Concurrency and the shared store
///
/// Each connection runs on its own thread. The shared store is one immutable
/// version behind an `Arc`. A request takes its snapshot as an `Arc` clone under
/// a brief lock, so a snapshot costs the same at any store size. It explores
/// against that snapshot with no lock held, so concurrent requests run in
/// parallel. It then drops the snapshot, re-locks, merges its fresh records into
/// the shared version and flushes it. The merge copies the store only when
/// another in-flight request still holds the old version. Two overlapping
/// requests therefore cannot corrupt the store, and whichever finishes second
/// gets the first one's records on its next request.
///
/// The flush under the lock costs what changed ([`ResultStore::flush`]). A request
/// that recorded nothing new, such as an all-hit repeat, does no file I/O. A
/// request with fresh records rewrites the memo file but parses it only when
/// another writer changed it, and verifies its write by comparing bytes.
///
/// # Degrade, don't die
///
/// The server treats its store as an accelerator, never as a dependency. When the
/// memo file cannot be loaded at startup, it serves from an empty in-memory store
/// that *keeps* the configured path ([`ResultStore::empty_at`]); when a flush
/// fails, the request still answers with its computed results and the response
/// (and `status`) flags `"store":"degraded"`. Every later flush retries the real
/// file, so the store heals the moment the path does — the `tests/fault_injection.rs`
/// wall drives both transitions with an injected store outage.
///
/// The final flush is best-effort too: its failure is reported on stderr, never
/// as an error (the computed answers were already delivered to the clients).
///
/// # Errors
///
/// Returns [`ExploreError::Serve`] when the socket cannot be bound. Per-request
/// failures are reported to the requesting client, never here.
pub fn serve(config: &ServeConfig) -> Result<(), ExploreError> {
    let mut degraded = false;
    let store = match &config.store_path {
        Some(path) => match ResultStore::load_with_faults(path, config.faults.clone()) {
            Ok(store) => store,
            Err(error) => {
                // Degraded startup: keep answering from an empty store that
                // retains the path, so a later successful flush heals it.
                eprintln!("explore-serve: store load failed, serving degraded: {error}");
                degraded = true;
                ResultStore::empty_at(path, config.faults.clone())
            }
        },
        None => ResultStore::in_memory(),
    };
    let shared = Arc::new(Shared {
        store: Mutex::new(Arc::new(store)),
        metrics: ServeMetrics::new(degraded),
        shutdown: AtomicBool::new(false),
        store_attached: config.store_path.is_some(),
        config: config.clone(),
    });
    // Replace a stale socket file from a previous, unclean shutdown.
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket).map_err(|error| {
        serve_error(format!(
            "cannot bind socket `{}`: {error}",
            config.socket.display()
        ))
    })?;
    listener.set_nonblocking(true).map_err(serve_error)?;
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &shared);
                }));
            }
            Err(error) if error.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            // Transient accept failures (e.g. a client vanishing mid-handshake)
            // must not kill a long-lived server.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
        // Reap finished connection threads as we go.
        let (finished, running): (Vec<_>, Vec<_>) = handlers
            .into_iter()
            .partition(std::thread::JoinHandle::is_finished);
        for handle in finished {
            let _ = handle.join();
        }
        handlers = running;
    }
    // Graceful shutdown: drain every in-flight request before the final flush.
    for handle in handlers {
        let _ = handle.join();
    }
    if let Err(error) = Arc::make_mut(&mut lock_store(&shared.store)).flush() {
        eprintln!("explore-serve: final store flush failed: {error}");
    }
    let _ = std::fs::remove_file(&config.socket);
    Ok(())
}

/// Serves one connection: accumulates bytes into a line buffer (a read timeout
/// must not lose a partial line, so this does its own splitting instead of
/// `BufRead::read_line`), answers each complete request line, and leaves when the
/// peer closes, the server shuts down, a line exceeds the configured byte cap
/// (typed `oversized` reject), or a partial line outlives the read deadline
/// (typed `deadline` reject).
fn handle_connection(mut stream: UnixStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(shared.config.write_deadline));
    let _connection = shared.metrics.connection_guard();
    let mut buffer: Vec<u8> = Vec::new();
    // When the first byte of a still-incomplete line arrived; `None` while the
    // buffer is empty. The read deadline is measured from here.
    let mut partial_since: Option<Instant> = None;
    let mut chunk = [0u8; 4096];
    let respond = |stream: &mut UnixStream, response: &ServeResponse| {
        let rendered = response.render();
        stream.write_all(rendered.as_bytes()).is_ok()
            && stream.write_all(b"\n").is_ok()
            && stream.flush().is_ok()
    };
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(read) => {
                if buffer.is_empty() {
                    partial_since = Some(Instant::now());
                }
                buffer.extend_from_slice(&chunk[..read]);
                while let Some(newline) = buffer.iter().position(|&byte| byte == b'\n') {
                    if newline > shared.config.max_line_bytes {
                        shared.metrics.note_oversized();
                        let _ = respond(&mut stream, &reject_oversized(shared));
                        return;
                    }
                    let line: Vec<u8> = buffer.drain(..=newline).collect();
                    let line = String::from_utf8_lossy(&line[..newline]).into_owned();
                    if line.trim().is_empty() {
                        continue;
                    }
                    if !respond(&mut stream, &handle_request(&line, shared)) {
                        return;
                    }
                }
                // A lineless stream past the cap can never become a valid
                // request; stop buffering it.
                if buffer.len() > shared.config.max_line_bytes {
                    shared.metrics.note_oversized();
                    let _ = respond(&mut stream, &reject_oversized(shared));
                    return;
                }
                if buffer.is_empty() {
                    partial_since = None;
                }
            }
            Err(error)
                if error.kind() == ErrorKind::WouldBlock || error.kind() == ErrorKind::TimedOut =>
            {
                // Idle connection; leave once the server is draining.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(since) = partial_since {
                    if !buffer.is_empty() && since.elapsed() > shared.config.read_deadline {
                        shared.metrics.note_deadline();
                        let response = ServeResponse {
                            reject: "deadline".to_string(),
                            error: format!(
                                "request line incomplete after {:?}",
                                shared.config.read_deadline
                            ),
                            ..ServeResponse::default()
                        };
                        let _ = respond(&mut stream, &response);
                        return;
                    }
                }
            }
            Err(_) => return,
        }
    }
}

/// The typed response for a request line (or lineless stream) over the byte cap.
fn reject_oversized(shared: &Shared) -> ServeResponse {
    ServeResponse {
        reject: "oversized".to_string(),
        error: format!(
            "request line exceeds {} bytes",
            shared.config.max_line_bytes
        ),
        ..ServeResponse::default()
    }
}

/// The store state string of a response: `"none"` without a store file, else
/// `"degraded"` while flushes are failing, else `"ok"`.
fn store_state(shared: &Shared) -> String {
    if !shared.store_attached {
        "none".to_string()
    } else if shared.metrics.degraded() {
        "degraded".to_string()
    } else {
        "ok".to_string()
    }
}

/// Answers one request line.
fn handle_request(line: &str, shared: &Shared) -> ServeResponse {
    shared.metrics.note_request();
    let fail = |error: String| ServeResponse {
        error,
        ..ServeResponse::default()
    };
    let fields = match parse_json(line) {
        Ok(Json::Object(fields)) => fields,
        Ok(_) => return fail("request line is not a JSON object".to_string()),
        Err(message) => return fail(format!("malformed request: {message}")),
    };
    if let Some(value) = lookup(&fields, "shutdown") {
        if value.as_bool() == Some(true) {
            shared.shutdown.store(true, Ordering::SeqCst);
            return ServeResponse {
                ok: true,
                shutdown: true,
                ..ServeResponse::default()
            };
        }
        return fail("`shutdown` must be `true` when present".to_string());
    }
    // Status bypasses admission: it must answer precisely when the server is
    // too loaded to take sweeps.
    if lookup(&fields, "status").is_some() {
        let health = lock_store(&shared.store).health();
        let status = shared.metrics.snapshot(
            store_state(shared),
            health.records as u64,
            health.damaged_lines as u64,
            health.quarantined as u64,
        );
        return ServeResponse {
            ok: true,
            status: Some(status),
            ..ServeResponse::default()
        };
    }
    // Admission control: shed the sweep with a typed reject instead of queueing
    // unbounded work. The guard holds the in-flight slot for the whole sweep.
    let Some(_slot) = shared.metrics.try_admit(shared.config.max_in_flight) else {
        return ServeResponse {
            reject: "overloaded".to_string(),
            error: format!("{} sweeps already in flight", shared.config.max_in_flight),
            ..ServeResponse::default()
        };
    };
    let mut spec = match build_spec(&fields) {
        Ok(spec) => spec,
        Err(message) => return fail(message),
    };
    // The server's fault plan rides along into the sweep (panic/stall injection
    // for the robustness tests; `None` in production).
    if let Some(plan) = shared.config.faults.clone() {
        spec.faults = Some(plan);
    }
    // Snapshot under a brief lock; the sweep itself runs lock-free so overlapping
    // requests explore in parallel.
    let snapshot = Arc::clone(&lock_store(&shared.store));
    let explored = explore_with_store(&spec, Some(&snapshot));
    // Drop the snapshot before merging, so the merge copies the store only when
    // another in-flight request still holds this version.
    drop(snapshot);
    match explored {
        Ok((results, stats, fresh)) => {
            let mut guard = lock_store(&shared.store);
            let store = Arc::make_mut(&mut guard);
            store.merge(fresh);
            // Compute-through degradation: a failing flush marks the store
            // degraded but the computed results still answer the request —
            // the next successful flush clears the flag.
            match store.flush() {
                Ok(()) => shared.metrics.set_degraded(false),
                Err(error) => {
                    eprintln!("explore-serve: store flush failed, serving degraded: {error}");
                    shared.metrics.set_degraded(true);
                }
            }
            drop(guard);
            let jobs = spec.job_count().unwrap_or(usize::MAX);
            shared
                .metrics
                .note_sweep(jobs as u64, stats.total_store_hits() as u64);
            ServeResponse {
                ok: true,
                jobs,
                points: results.points().len(),
                store_hits: stats.total_store_hits(),
                quarantined: results.quarantined().len(),
                store: store_state(shared),
                summary: results.render_summary(),
                ..ServeResponse::default()
            }
        }
        Err(error) => fail(error.to_string()),
    }
}

/// The catalog a request's `{"design": name}` sources resolve from.
fn catalog_design(name: &str) -> Option<Design> {
    Some(match name {
        "x_squared" => dpsyn_designs::x_squared(),
        "x_cubed" => dpsyn_designs::x_cubed(),
        "x2_x_y" => dpsyn_designs::x2_x_y(),
        "binomial_square" => dpsyn_designs::binomial_square(),
        "mixed_poly" => dpsyn_designs::mixed_poly(),
        "iir" => dpsyn_designs::iir(),
        "kalman" => dpsyn_designs::kalman(),
        "idct" => dpsyn_designs::idct(),
        "complex_mult" => dpsyn_designs::complex_mult(),
        "serial_adapter" => dpsyn_designs::serial_adapter(),
        _ => return None,
    })
}

fn parse_flow(value: &Json) -> Result<Flow, String> {
    if let Some(name) = value.as_str() {
        return Flow::NAMED
            .into_iter()
            .find(|flow| flow.name() == name)
            .ok_or_else(|| format!("unknown flow `{name}`"));
    }
    if let Json::Object(fields) = value {
        if let [(key, seed)] = fields.as_slice() {
            if key == "fa_random" || key == "fa_anneal" {
                let seed = seed
                    .as_u64()
                    .ok_or_else(|| format!("`{key}` takes an integer seed"))?;
                return Ok(match key.as_str() {
                    "fa_random" => Flow::FaRandom(seed),
                    _ => Flow::FaAnneal(seed),
                });
            }
        }
    }
    Err("a flow is a name string, {\"fa_random\": seed} or {\"fa_anneal\": seed}".to_string())
}

/// A skew/bias axis entry: the string `"keep"` or a uniform-range number.
fn parse_profile(value: &Json) -> Result<Option<f64>, String> {
    if value.as_str() == Some("keep") {
        return Ok(None);
    }
    value
        .as_number()
        .map(Some)
        .ok_or_else(|| "a profile is \"keep\" or a number".to_string())
}

/// Builds the [`ExplorationSpec`] a request describes; every field maps onto one
/// builder call and unknown fields are rejected.
fn build_spec(fields: &[(String, Json)]) -> Result<ExplorationSpec, String> {
    let mut builder = ExplorationSpec::builder();
    for (key, value) in fields {
        match key.as_str() {
            "sources" => {
                for source in value.as_array().ok_or("`sources` must be an array")? {
                    let Json::Object(entry) = source else {
                        return Err("a source is an object with one key".to_string());
                    };
                    let [(kind, argument)] = entry.as_slice() else {
                        return Err("a source is an object with one key".to_string());
                    };
                    builder = match kind.as_str() {
                        "design" => {
                            let name = argument.as_str().ok_or("`design` takes a name string")?;
                            let design = catalog_design(name)
                                .ok_or_else(|| format!("unknown design `{name}`"))?;
                            builder.design(design)
                        }
                        "sum" => builder.sum_workload(
                            argument.as_usize().ok_or("`sum` takes an operand count")?,
                        ),
                        "sop" => builder.sum_of_products_workload(
                            argument.as_usize().ok_or("`sop` takes a term count")?,
                        ),
                        other => return Err(format!("unknown source kind `{other}`")),
                    };
                }
            }
            "widths" => {
                for width in value.as_array().ok_or("`widths` must be an array")? {
                    let width = width.as_u64().ok_or("a width must be an integer")?;
                    builder = builder.width(u32::try_from(width).map_err(|_| "width too large")?);
                }
            }
            "skews" => {
                for skew in value.as_array().ok_or("`skews` must be an array")? {
                    builder = builder.skew(match parse_profile(skew)? {
                        None => SkewProfile::Keep,
                        Some(max_arrival) => SkewProfile::Uniform(max_arrival),
                    });
                }
            }
            "biases" => {
                for bias in value.as_array().ok_or("`biases` must be an array")? {
                    builder = builder.bias(match parse_profile(bias)? {
                        None => BiasProfile::Keep,
                        Some(bias) => BiasProfile::Uniform(bias),
                    });
                }
            }
            "flows" => {
                for flow in value.as_array().ok_or("`flows` must be an array")? {
                    builder = builder.flow(parse_flow(flow)?);
                }
            }
            "seed" => builder = builder.seed(value.as_u64().ok_or("`seed` must be an integer")?),
            "threads" => {
                builder = builder.threads(value.as_usize().ok_or("`threads` must be an integer")?);
            }
            "tech" => {
                builder = builder.tech(match value.as_str() {
                    Some("unit") => TechLibrary::unit(),
                    Some("lcbg10pv_like") => TechLibrary::lcbg10pv_like(),
                    _ => return Err("`tech` is \"unit\" or \"lcbg10pv_like\"".to_string()),
                });
            }
            "sim_activity" => {
                let Json::Object(entry) = value else {
                    return Err("`sim_activity` is an object with `seed` and `vectors`".to_string());
                };
                let mut seed = None;
                let mut vectors = None;
                for (field, value) in entry {
                    match field.as_str() {
                        "seed" => {
                            seed = Some(
                                value
                                    .as_u64()
                                    .ok_or("`sim_activity.seed` must be an integer")?,
                            );
                        }
                        "vectors" => {
                            vectors = Some(
                                value
                                    .as_usize()
                                    .ok_or("`sim_activity.vectors` must be an integer")?,
                            );
                        }
                        other => return Err(format!("unknown `sim_activity` field `{other}`")),
                    }
                }
                let seed = seed.ok_or("`sim_activity` requires a `seed`")?;
                let vectors = vectors.ok_or("`sim_activity` requires a `vectors` count")?;
                builder = builder.sim_activity(SimActivity { seed, vectors });
            }
            other => return Err(format!("unknown request field `{other}`")),
        }
    }
    builder.build().map_err(|error| error.to_string())
}

// ---------------------------------------------------------------------------
// Minimal JSON: just enough for the line protocol, no external dependency.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(value) => Some(*value),
            _ => None,
        }
    }

    fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(value) => Some(*value),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        let value = self.as_number()?;
        (value.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&value)).then_some(value as u64)
    }

    fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(value) => Some(value),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(values) => Some(values),
            _ => None,
        }
    }
}

fn lookup<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields
        .iter()
        .find_map(|(name, value)| (name == key).then_some(value))
}

fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 8);
    for character in text.chars() {
        match character {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            control if (control as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", control as u32));
            }
            character => out.push(character),
        }
    }
    out
}

/// Deepest array/object nesting a line may use. The protocol's deepest shape,
/// `{"flows":[{"fa_random":3}]}`, is 3 levels; the cap keeps a hostile line from
/// overflowing a connection thread's stack in the recursive descent below.
const MAX_JSON_DEPTH: usize = 16;

struct JsonParser<'a> {
    text: &'a str,
    pos: usize,
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = JsonParser { text, pos: 0 };
    parser.skip_whitespace();
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.pos != text.len() {
        return Err(format!("trailing characters at byte {}", parser.pos));
    }
    Ok(value)
}

impl JsonParser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Parses the value at the cursor, enclosed by `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(values));
        }
        loop {
            self.skip_whitespace();
            values.push(self.value(depth)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(values));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text
            .get(start..self.pos)
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let digits = self
            .text
            .get(self.pos..end)
            .and_then(|text| u16::from_str_radix(text, 16).ok())
            .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&unit) {
                                // A high surrogate must be followed by `\uXXXX`
                                // carrying the low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err("unpaired surrogate".to_string());
                                }
                                0x10000 + (u32::from(unit - 0xd800) << 10) + u32::from(low - 0xdc00)
                            } else {
                                u32::from(unit)
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid codepoint".to_string())?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{}`", char::from(other))),
                    }
                }
                Some(_) => {
                    // Consume one character in O(1): slicing the &str checks only
                    // that the cursor sits on a character boundary.
                    let character = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {}", self.pos))?;
                    out.push(character);
                    self.pos += character.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Server state for calling `handle_request` directly: no store file, no
    /// socket.
    fn storeless_shared() -> Shared {
        Shared {
            store: Mutex::new(Arc::new(ResultStore::in_memory())),
            metrics: ServeMetrics::new(false),
            shutdown: AtomicBool::new(false),
            store_attached: false,
            config: ServeConfig::new("/tmp/unused.sock"),
        }
    }

    #[test]
    fn json_roundtrips_the_protocol_shapes() {
        let line = r#"{"sources":[{"design":"x_squared"},{"sum":3}],"widths":[4,8],
                       "skews":["keep",2.0],
                       "flows":["csa_opt",{"fa_random":11},{"fa_anneal":5}],
                       "seed":7,"threads":2}"#;
        let Json::Object(fields) = parse_json(line).expect("request parses") else {
            panic!("not an object");
        };
        assert_eq!(
            lookup(&fields, "seed").and_then(Json::as_u64),
            Some(7),
            "numbers parse exactly"
        );
        let spec = build_spec(&fields).expect("spec builds");
        // x_squared: 2 skews × 3 flows; sum3: 2 widths × 2 skews × 3 flows.
        assert_eq!(spec.jobs().len(), 6 + 12);
        assert!(
            spec.jobs()
                .iter()
                .any(|job| job.flow() == Flow::FaAnneal(5)),
            "the seeded fa_anneal flow survives the protocol roundtrip"
        );
        assert_eq!(spec.threads(), 2);
        assert_eq!(spec.seed(), 7);
    }

    #[test]
    fn escaped_strings_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\ slash — π 🦀";
        let encoded = format!("{{\"text\":\"{}\"}}", escape_json(original));
        let Json::Object(fields) = parse_json(&encoded).expect("escaped text parses") else {
            panic!("not an object");
        };
        assert_eq!(
            lookup(&fields, "text").and_then(Json::as_str),
            Some(original)
        );
        // And explicit \uXXXX escapes, including a surrogate pair.
        let Json::Object(fields) =
            parse_json(r#"{"text":"\u0041\u00e9\ud83e\udd80"}"#).expect("unicode escapes parse")
        else {
            panic!("not an object");
        };
        assert_eq!(
            lookup(&fields, "text").and_then(Json::as_str),
            Some("Aé🦀"),
            "escapes decode"
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(parse_json("{\"a\":1,}").is_err(), "trailing comma");
        assert!(parse_json("[1 2]").is_err(), "missing comma");
        assert!(parse_json("{\"a\":1} extra").is_err(), "trailing garbage");
        let Json::Object(fields) = parse_json(r#"{"flous":["csa_opt"]}"#).unwrap() else {
            panic!("not an object");
        };
        let error = build_spec(&fields).expect_err("typos must not be ignored");
        assert!(error.contains("unknown request field"), "{error}");
        let Json::Object(fields) = parse_json(r#"{"flows":["warp_speed"]}"#).unwrap() else {
            panic!("not an object");
        };
        assert!(build_spec(&fields)
            .expect_err("unknown flow")
            .contains("unknown flow"));
    }

    #[test]
    fn retired_scheduler_fields_are_unknown_request_fields() {
        let shared = storeless_shared();
        for line in [r#"{"steal":"busiest"}"#, r#"{"overpartition":4}"#] {
            let response = handle_request(line, &shared);
            assert!(!response.ok, "{line} must be rejected");
            assert!(
                response.error.contains("unknown request field"),
                "{line} -> {}",
                response.error
            );
        }
    }

    #[test]
    fn deeply_nested_lines_are_rejected_without_exhausting_the_stack() {
        // Connection handlers run on default-stack spawned threads, so parse there.
        let deep = "[".repeat(100_000);
        let error = std::thread::spawn(move || parse_json(&deep))
            .join()
            .expect("the parser returns instead of overflowing the stack")
            .expect_err("the nesting cap rejects the line");
        assert!(error.contains("nesting deeper than"), "{error}");
        assert!(parse_json(r#"{"flows":[{"fa_random":3}]}"#).is_ok());
    }

    /// Parsing runs before admission, so it must stay linear in the line: a
    /// string value of a million characters (under the default 1 MiB line cap)
    /// gets its typed reject at once instead of pinning a connection thread.
    #[test]
    fn million_character_strings_are_rejected_in_linear_time() {
        let shared = storeless_shared();
        let name = "π".repeat(1_000) + &"x".repeat(999_000);
        let line = format!(r#"{{"sources":[{{"design":"{name}"}}],"flows":["conventional"]}}"#);
        assert!(line.len() < 1 << 20, "the line fits the default cap");
        let started = std::time::Instant::now();
        let response = handle_request(&line, &shared);
        let elapsed = started.elapsed();
        assert!(!response.ok);
        assert!(
            response.error.starts_with("unknown design `ππ"),
            "{}",
            response.error.chars().take(40).collect::<String>()
        );
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "a 1M-character string took {elapsed:?} to reject"
        );
    }

    #[test]
    fn sim_activity_requests_parse_and_reject_malformed_combinations() {
        let build = |line: &str| {
            let Json::Object(fields) = parse_json(line).expect("request parses") else {
                panic!("not an object");
            };
            build_spec(&fields)
        };
        let spec = build(
            r#"{"sources":[{"design":"x_squared"}],"flows":["fa_aot"],
                "sim_activity":{"seed":11,"vectors":4096}}"#,
        )
        .expect("well-formed sim_activity builds");
        assert_eq!(
            spec.sim_activity(),
            Some(SimActivity {
                seed: 11,
                vectors: 4096
            })
        );
        // Each malformed combination carries its own typed reason.
        for (line, reason) in [
            (r#"{"sim_activity":true}"#, "object with `seed`"),
            (r#"{"sim_activity":{"vectors":64}}"#, "requires a `seed`"),
            (
                r#"{"sim_activity":{"seed":1}}"#,
                "requires a `vectors` count",
            ),
            (
                r#"{"sim_activity":{"seed":1,"vectors":64,"warp":9}}"#,
                "unknown `sim_activity` field `warp`",
            ),
            (
                r#"{"sim_activity":{"seed":1.5,"vectors":64}}"#,
                "`sim_activity.seed` must be an integer",
            ),
            (
                r#"{"sim_activity":{"seed":1,"vectors":"many"}}"#,
                "`sim_activity.vectors` must be an integer",
            ),
            (
                r#"{"sources":[{"design":"x_squared"}],"flows":["fa_aot"],
                    "sim_activity":{"seed":1,"vectors":1}}"#,
                "at least 2 vectors",
            ),
        ] {
            let error = build(line).expect_err(line);
            assert!(error.contains(reason), "{line} -> {error}");
        }
    }

    #[test]
    fn responses_roundtrip_through_render_and_parse() {
        let response = ServeResponse {
            ok: true,
            jobs: 24,
            points: 22,
            store_hits: 18,
            quarantined: 2,
            store: "degraded".to_string(),
            summary: "multi\nline \"summary\"".to_string(),
            ..ServeResponse::default()
        };
        let parsed = ServeResponse::parse(&response.render()).expect("response parses");
        assert!(parsed.ok);
        assert_eq!(parsed.jobs, 24);
        assert_eq!(parsed.points, 22);
        assert_eq!(parsed.store_hits, 18);
        assert_eq!(parsed.quarantined, 2);
        assert_eq!(parsed.store, "degraded");
        assert_eq!(parsed.summary, response.summary);
        let failure = ServeResponse {
            error: "boom".to_string(),
            ..ServeResponse::default()
        };
        let parsed = ServeResponse::parse(&failure.render()).expect("failure parses");
        assert!(!parsed.ok);
        assert_eq!(parsed.error, "boom");
        assert_eq!(parsed.reject, "", "a failure is not a shed");
        let shed = ServeResponse {
            reject: "overloaded".to_string(),
            error: "8 sweeps already in flight".to_string(),
            ..ServeResponse::default()
        };
        let parsed = ServeResponse::parse(&shed.render()).expect("reject parses");
        assert!(!parsed.ok);
        assert_eq!(parsed.reject, "overloaded");
        let ack = ServeResponse {
            ok: true,
            shutdown: true,
            ..ServeResponse::default()
        };
        assert!(ServeResponse::parse(&ack.render()).unwrap().shutdown);
    }

    #[test]
    fn status_responses_roundtrip_with_full_precision_hit_rate() {
        let status = ServeStatus {
            requests: 10,
            completed: 7,
            in_flight: 1,
            queue_depth: 2,
            rejected_overload: 3,
            rejected_oversized: 1,
            rejected_deadline: 1,
            jobs: 48,
            store_hits: 36,
            hit_rate: 0.75,
            store: "ok".to_string(),
            records: 40,
            damaged_lines: 1,
            quarantined: 2,
        };
        let response = ServeResponse {
            ok: true,
            status: Some(status.clone()),
            ..ServeResponse::default()
        };
        let parsed = ServeResponse::parse(&response.render()).expect("status parses");
        assert!(parsed.ok);
        assert_eq!(parsed.status, Some(status));
    }

    /// Satellite regression: a request thread panicking while it holds the store
    /// lock poisons the mutex, and `lock_store` must recover the guard — with the
    /// records intact — so the *next* request still answers instead of panicking
    /// the whole server.
    #[test]
    fn poisoned_store_lock_recovers_and_requests_still_answer() {
        let store = Arc::new(Mutex::new(Arc::new(ResultStore::in_memory())));
        let poisoner = Arc::clone(&store);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().expect("first lock is clean");
            panic!("injected panic while holding the store lock");
        })
        .join();
        assert!(store.lock().is_err(), "the mutex is actually poisoned");
        let guard = lock_store(&store);
        assert!(guard.is_empty(), "the store data survives the poisoning");
        drop(guard);
        let shared = storeless_shared();
        // Poison the shared server store the same way...
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.store.lock().expect("first lock is clean");
            panic!("injected panic while holding the server store lock");
        }));
        assert!(result.is_err());
        // ...and a full request through the normal path still answers.
        let response = handle_request(
            r#"{"sources":[{"design":"x_squared"}],"flows":["conventional"],"threads":1}"#,
            &shared,
        );
        assert!(response.ok, "request failed: {}", response.error);
        assert_eq!(response.points, 1);
        assert_eq!(response.store, "none");
        let status = handle_request(r#"{"status":{}}"#, &shared);
        let status = status.status.expect("status answers on a poisoned lock");
        assert_eq!(status.requests, 2);
        assert_eq!(status.completed, 1);
    }

    /// The request vocabulary: every protocol field and name, so generated
    /// requests reach deep into `build_spec` instead of failing on their first key.
    /// The first `REQUEST_FIELDS` words are the fields `build_spec` takes;
    /// `overpartition` and `steal` were fields once and must now be rejected.
    const REQUEST_FIELDS: usize = 9;
    const WORDS: [&str; 32] = [
        "sources",
        "widths",
        "skews",
        "biases",
        "flows",
        "seed",
        "threads",
        "tech",
        "sim_activity",
        "overpartition",
        "steal",
        "status",
        "shutdown",
        "design",
        "sum",
        "sop",
        "vectors",
        "keep",
        "busiest",
        "round_robin",
        "unit",
        "lcbg10pv_like",
        "x_squared",
        "iir",
        "conventional",
        "csa_opt",
        "wallace_fixed",
        "fa_aot",
        "fa_alp",
        "fa_random",
        "fa_anneal",
        "",
    ];

    /// A value shaped like what request field `field` takes, drawn from `seed`
    /// (sometimes just out of range), so whole requests get past the field checks
    /// and reach `ExplorationSpecBuilder::build`.
    fn shaped(field: &str, seed: u64) -> String {
        let small = seed % 70;
        // One time in four, a near miss: right container, wrong contents.
        let near_miss = seed % 4 == 3;
        let pick =
            |options: &[&str]| options[(seed / 4 % options.len() as u64) as usize].to_string();
        match field {
            "sources" if near_miss => pick(&[
                "[{}]",
                "[[]]",
                r#"[{"sum":-1}]"#,
                r#"[{"design":1}]"#,
                r#"[{"sum":2,"sop":3}]"#,
            ]),
            "sources" => match seed % 3 {
                0 => r#"[{"design":"x_squared"}]"#.to_string(),
                1 => format!(r#"[{{"sum":{small}}}]"#),
                _ => format!(r#"[{{"sop":{small}}},{{"design":"iir"}}]"#),
            },
            "flows" if near_miss => pick(&[
                "[{}]",
                "[7]",
                r#"[{"fa_random":1.5}]"#,
                r#"[{"fa_random":1,"fa_anneal":2}]"#,
                r#"["fa_aot","x_cubed"]"#,
            ]),
            "flows" => format!(r#"["fa_aot",{{"fa_random":{seed}}},{{"fa_anneal":{small}}}]"#),
            "sim_activity" if near_miss => pick(&[
                "{}",
                r#"{"seed":1}"#,
                r#"{"vectors":1e400}"#,
                r#"{"seed":1,"vectors":2,"extra":3}"#,
            ]),
            "sim_activity" => format!(r#"{{"seed":{small},"vectors":{}}}"#, seed % 70_000),
            "widths" => format!("[{small},{}]", seed % 9),
            "skews" | "biases" => format!(r#"["keep",{}]"#, (seed % 80) as f64 / 100.0),
            "threads" => (seed % 5).to_string(),
            "tech" => pick(&[r#""unit""#, r#""lcbg10pv_like""#, r#""fast""#]),
            _ => seed.to_string(),
        }
    }

    /// Valid JSON text over the protocol vocabulary: numbers at and past every
    /// integer boundary, vocabulary and garbage strings, nested arrays and objects.
    fn json_text() -> BoxedStrategy<String> {
        let leaf = prop_oneof![
            (0u64..70).prop_map(|number| number.to_string()),
            any::<i64>().prop_map(|number| number.to_string()),
            (-3.0f64..3.0).prop_map(|number| format!("{number}")),
            (0usize..6).prop_map(|index| {
                [
                    "1e400",
                    "-0",
                    "18446744073709551616",
                    "65537",
                    "0.5",
                    "1e-9",
                ][index]
                    .to_string()
            }),
            (0usize..WORDS.len()).prop_map(|index| format!("\"{}\"", WORDS[index])),
            (any::<u64>(), 0usize..24).prop_map(|(seed, len)| {
                let garbage = crate::faults::deterministic_garbage(seed, len);
                format!("\"{}\"", escape_json(&String::from_utf8_lossy(&garbage)))
            }),
            (0usize..3).prop_map(|index| ["true", "false", "null"][index].to_string()),
            (0usize..5).prop_map(|index| {
                [
                    r#""\u00e9\ud83e\udd80""#,
                    r#""a\"b\\c\n\/\b\f\r\t""#,
                    r#""π🦀""#,
                    r#""\u0000""#,
                    r#""\\u12""#,
                ][index]
                    .to_string()
            }),
        ];
        leaf.prop_recursive(4, 32, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4)
                    .prop_map(|items| format!("[{}]", items.join(","))),
                prop::collection::vec((0usize..WORDS.len(), inner), 0..4).prop_map(render_object),
            ]
        })
    }

    /// One request field: its name and, three times in four, a shaped value.
    fn request_field() -> BoxedStrategy<(usize, String)> {
        (0usize..REQUEST_FIELDS, 0u8..4, any::<u64>(), json_text())
            .prop_map(|(field, choice, seed, random)| {
                let value = if choice < 3 {
                    shaped(WORDS[field], seed)
                } else {
                    random
                };
                (field, value)
            })
            .boxed()
    }

    fn render_object(fields: Vec<(usize, String)>) -> String {
        let fields: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("\"{}\":{value}", WORDS[*key]))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any request line — well-formed, cut short, spliced with garbage, or
        /// garbage outright — parses and builds to a value or a typed `Err`, and
        /// never panics.
        #[test]
        fn untrusted_request_lines_never_panic(
            sources in any::<u64>(),
            fields in prop::collection::vec(request_field(), 0..5),
            mutation in 0u8..10,
            cut in any::<u64>(),
        ) {
            // Every line starts with the two fields a sweep cannot do without.
            let mut fields = fields;
            fields.insert(0, (0, shaped("sources", sources)));
            fields.insert(1, (4, shaped("flows", sources)));
            let well_formed = render_object(fields);
            let garbage = crate::faults::deterministic_garbage(cut, (cut % 200) as usize);
            let garbage = String::from_utf8(garbage).expect("garbage is printable ASCII");
            let floor = |mut index: usize| {
                while !well_formed.is_char_boundary(index) {
                    index -= 1;
                }
                index
            };
            let at = floor((cut as usize) % (well_formed.len() + 1));
            // Cut points just past a backslash or a structural byte, where a parser
            // is mid-token.
            let after = |bytes: &[u8]| -> Vec<usize> {
                well_formed
                    .bytes()
                    .enumerate()
                    .filter(|(_, byte)| bytes.contains(byte))
                    .map(|(index, _)| index + 1)
                    .collect()
            };
            let structural = after(b"\"{[:,");
            let escapes = after(b"\\");
            let marks = if mutation == 6 && !escapes.is_empty() {
                escapes
            } else {
                structural
            };
            // After a backslash, also cut up to four bytes further (inside `\uXXXX`).
            let mut mark = marks[(cut as usize) % marks.len()];
            if mutation == 6 {
                mark = floor((mark + (cut >> 32) as usize % 5).min(well_formed.len()));
            }
            // Half the lines stay well-formed; the rest are cut, spliced or junk.
            let line = match mutation {
                0..=4 => well_formed.clone(),
                5 | 6 => well_formed[..mark].to_string(),
                7 => well_formed[..at].to_string(),
                8 => format!("{}{}{}", &well_formed[..at], &garbage, &well_formed[at..]),
                _ => garbage,
            };
            let parsed = parse_json(&line);
            if mutation <= 4 {
                prop_assert!(parsed.is_ok(), "valid JSON rejected: {line}");
            }
            if let Ok(Json::Object(fields)) = parsed {
                // Either outcome is fine; reaching it without a panic is the property.
                let _ = build_spec(&fields);
            }
        }
    }
}
