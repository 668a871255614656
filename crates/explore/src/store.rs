//! The persistent cross-run evaluation store. [`ResultStore`] carries the key
//! semantics, the on-disk memo-file format and the flush rules in its rustdoc, so
//! they show in `cargo doc`.

use crate::error::ExploreError;
use crate::faults::{FaultPlan, WriteFault};
use dpsyn_baselines::Flow;
use dpsyn_designs::Design;
use dpsyn_netlist::StructuralHasher;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Header line of the memo file; the version suffix guards the record layout.
pub const STORE_FORMAT: &str = "dpsyn-eval-store v3";

/// Bounded retries for the flush merge-verify loop under concurrent writers.
const FLUSH_ATTEMPTS: usize = 16;

/// Temp files this process has written, numbering each flush's temp file.
static TEMP_FILES: AtomicU64 = AtomicU64::new(0);

/// Independent seeds for the primary word, the two fingerprint chains, the
/// profile and stimulus digests and the per-line checksum. Any two digests of the
/// same words differ because their chains start differently.
const FINGERPRINT_SEEDS: [u64; 2] = [0x9d5c_41e7_3b28_f601, 0x5e8a_02c9_d714_6fb3];
const POINT_PRIMARY_SEED: u64 = 0x31f6_88ad_0c52_e947;
const PROFILE_SEED: u64 = 0xc703_5a1e_92d8_4b65;
const LINE_SEED: u64 = 0x84b2_d90f_671c_3ae5;
const STIMULUS_SEED: u64 = 0x2f9e_6c83_b1d7_054a;

/// The exact identity a stored evaluation is keyed by: one materialized design
/// point under one flow. The [`ResultStore`] docs say what each component covers.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EvalKey {
    /// The primary probe word: a seeded digest of the design point's identity.
    pub structural: u64,
    /// 128-bit fingerprint of the design point's canonical serialization (two
    /// independently-seeded chains over the same word stream).
    pub fingerprint: [u64; 2],
    /// The technology library's identity digest.
    pub tech: u64,
    /// The flow identity (includes the seed for `fa_random` / `fa_anneal`).
    pub flow: String,
    /// Digest of the input profiles the figures were computed under.
    pub profiles: u64,
    /// Digest of the stimulus the simulated switching metric was computed under
    /// ([`stimulus_digest`]), `0` for a purely analytic run.
    pub stimulus: u64,
}

/// Folds `words` through one independently-seeded splitmix64 chain.
fn chain(seed: u64, words: &[u64]) -> u64 {
    let mut hasher = StructuralHasher::with_seed(seed);
    for word in words {
        hasher.write(*word);
    }
    hasher.finish()
}

/// Appends a length-prefixed string to a canonical word stream.
fn push_str(words: &mut Vec<u64>, text: &str) {
    words.push(text.len() as u64);
    words.extend(text.bytes().map(u64::from));
}

impl EvalKey {
    /// Keys one materialized design point before synthesis: name, expression
    /// text, output width and every input bit's exact arrival/probability, times
    /// the flow (seed included) and the tech digest. The name is part of the key
    /// because rendered summaries carry it, so a renamed twin is a fresh
    /// evaluation. `stimulus` is [`stimulus_digest`] of the sweep's
    /// simulated-activity request, or `0` for an analytic sweep.
    pub fn point(design: &Design, flow: Flow, tech: u64, stimulus: u64) -> EvalKey {
        EvalKey::design_point(design, tech, stimulus).with_flow(flow)
    }

    /// The flow-independent part of [`EvalKey::point`]: every field but the flow,
    /// which is left empty. The engine builds it once per design point of a run
    /// and completes it per job with [`EvalKey::with_flow`].
    pub(crate) fn design_point(design: &Design, tech: u64, stimulus: u64) -> EvalKey {
        let expr = design.expr().to_string();
        let mut words = Vec::new();
        push_str(&mut words, design.name());
        push_str(&mut words, &expr);
        words.push(u64::from(design.output_width()));
        words.push(design.spec().len() as u64);
        let mut profile_words = Vec::new();
        for var in design.spec().vars() {
            push_str(&mut words, var.name());
            words.push(u64::from(var.width()));
            for bit in var.bits() {
                words.push(bit.arrival.to_bits());
                words.push(bit.probability.to_bits());
                profile_words.push(bit.arrival.to_bits());
                profile_words.push(bit.probability.to_bits());
            }
        }
        EvalKey {
            structural: chain(POINT_PRIMARY_SEED, &words),
            fingerprint: [
                chain(FINGERPRINT_SEEDS[0], &words),
                chain(FINGERPRINT_SEEDS[1], &words),
            ],
            tech,
            flow: String::new(),
            profiles: chain(PROFILE_SEED, &profile_words),
            stimulus,
        }
    }

    /// A copy of a [`EvalKey::design_point`] key for one flow (seed included).
    pub(crate) fn with_flow(&self, flow: Flow) -> EvalKey {
        EvalKey {
            flow: flow.to_string(),
            ..self.clone()
        }
    }
}

/// Digest of one simulated-activity request's identity: the stimulus seed, the
/// vector count, and the batch shape the engine evaluates with (block size times
/// lane width). `0` is reserved for "no simulated metric", and the chain seed
/// guarantees no activity digests to `0` in practice.
pub fn stimulus_digest(activity: crate::spec::SimActivity) -> u64 {
    chain(
        STIMULUS_SEED,
        &[
            activity.seed,
            activity.vectors as u64,
            dpsyn_sim::DEFAULT_BLOCK as u64,
            dpsyn_sim::LANES as u64,
        ],
    )
}

impl fmt::Display for EvalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {}",
            self.structural,
            self.fingerprint[0],
            self.fingerprint[1],
            self.tech,
            self.profiles,
            self.stimulus,
            self.flow
        )
    }
}

/// The memoized figures of one evaluated point — exactly the fields an
/// [`ExplorationPoint`](crate::ExplorationPoint)'s metrics carry, stored as bit
/// patterns so a warm hit reproduces a cold run byte for byte.
#[derive(Debug, Clone, Copy)]
pub struct StoredEval {
    /// Critical delay (library time units).
    pub delay: f64,
    /// Total cell area (library area units).
    pub area: f64,
    /// Weighted switching energy.
    pub switching_energy: f64,
    /// Power on the milliwatt-like scale.
    pub power_mw: f64,
    /// Cell count of the synthesized netlist.
    pub cell_count: usize,
    /// Logic depth (levels) of the synthesized netlist.
    pub logic_depth: usize,
    /// Simulated switching power on the same milliwatt-like scale as `power_mw`;
    /// `0.0` when the record was produced by a purely analytic sweep (its key then
    /// carries a zero stimulus digest, so the two never mix).
    pub simulated_switch_power: f64,
}

impl StoredEval {
    /// The record as an exact word tuple — equality, ordering and the merge
    /// tie-break all operate on bit patterns, never on float comparison.
    fn bits(&self) -> [u64; 7] {
        [
            self.delay.to_bits(),
            self.area.to_bits(),
            self.switching_energy.to_bits(),
            self.power_mw.to_bits(),
            self.cell_count as u64,
            self.logic_depth as u64,
            self.simulated_switch_power.to_bits(),
        ]
    }
}

impl PartialEq for StoredEval {
    fn eq(&self, other: &Self) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for StoredEval {}

impl PartialOrd for StoredEval {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StoredEval {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bits().cmp(&other.bits())
    }
}

/// The deterministic merge winner for one key: the bit-wise smaller record.
/// Conflicting values for one exact key cannot arise from correct evaluation
/// (evaluation is a pure function of the key's preimage), but the merge must
/// still be a total, commutative rule so concurrent flushes converge to
/// identical bytes no matter the order.
fn merged(first: StoredEval, second: StoredEval) -> StoredEval {
    if second < first {
        second
    } else {
        first
    }
}

/// Chained checksum of one record line (key words, flow bytes, value words).
fn line_checksum(key: &EvalKey, value: &StoredEval) -> u64 {
    let mut hasher = StructuralHasher::with_seed(LINE_SEED);
    hasher.write(key.structural);
    hasher.write(key.fingerprint[0]);
    hasher.write(key.fingerprint[1]);
    hasher.write(key.tech);
    hasher.write(key.profiles);
    hasher.write(key.stimulus);
    hasher.write_str(&key.flow);
    for word in value.bits() {
        hasher.write(word);
    }
    hasher.finish()
}

/// Appends `word` as 16 lowercase hex digits, the `{:016x}` rendering.
fn push_hex(out: &mut Vec<u8>, word: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 16];
    for (index, digit) in digits.iter_mut().enumerate() {
        *digit = DIGITS[(word >> (60 - 4 * index)) as usize & 0xf];
    }
    out.extend_from_slice(&digits);
}

/// Appends one record line, without its newline: the key's
/// [`Display`](EvalKey#impl-Display-for-EvalKey) text, the seven value words and
/// the checksum, space-separated.
fn push_line(out: &mut Vec<u8>, key: &EvalKey, value: &StoredEval) {
    let key_words = [
        key.structural,
        key.fingerprint[0],
        key.fingerprint[1],
        key.tech,
        key.profiles,
        key.stimulus,
    ];
    for word in key_words {
        push_hex(out, word);
        out.push(b' ');
    }
    out.extend_from_slice(key.flow.as_bytes());
    for word in value.bits().into_iter().chain([line_checksum(key, value)]) {
        out.push(b' ');
        push_hex(out, word);
    }
}

/// The `format!` rendering of a record line: the reference [`push_line`] is
/// tested against.
#[cfg(test)]
fn format_line(key: &EvalKey, value: &StoredEval) -> String {
    let bits = value.bits();
    format!(
        "{key} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x}",
        bits[0],
        bits[1],
        bits[2],
        bits[3],
        bits[4],
        bits[5],
        bits[6],
        line_checksum(key, value)
    )
}

/// Parses one record line; `None` for anything malformed or checksum-failing.
fn parse_line(line: &str) -> Option<(EvalKey, StoredEval)> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() != 15 {
        return None;
    }
    let word = |token: &str| u64::from_str_radix(token, 16).ok();
    let key = EvalKey {
        structural: word(tokens[0])?,
        fingerprint: [word(tokens[1])?, word(tokens[2])?],
        tech: word(tokens[3])?,
        profiles: word(tokens[4])?,
        stimulus: word(tokens[5])?,
        flow: tokens[6].to_string(),
    };
    let value = StoredEval {
        delay: f64::from_bits(word(tokens[7])?),
        area: f64::from_bits(word(tokens[8])?),
        switching_energy: f64::from_bits(word(tokens[9])?),
        power_mw: f64::from_bits(word(tokens[10])?),
        cell_count: word(tokens[11])? as usize,
        logic_depth: word(tokens[12])? as usize,
        simulated_switch_power: f64::from_bits(word(tokens[13])?),
    };
    let checksum = word(tokens[14])?;
    (line_checksum(&key, &value) == checksum).then_some((key, value))
}

fn store_error(path: &Path, message: impl fmt::Display) -> ExploreError {
    ExploreError::Store {
        path: path.to_path_buf(),
        message: message.to_string(),
    }
}

/// What one read of a memo file found.
#[derive(Default)]
struct LoadedFile {
    records: BTreeMap<EvalKey, StoredEval>,
    /// The file existed but carried a foreign or stale header.
    rebuilt: bool,
    /// The text of every record line that failed to parse or checksum (lossy for
    /// a line that is not UTF-8).
    damaged: Vec<String>,
    /// The file's final line was cut mid-record (no trailing newline and the
    /// partial line fails to parse) — the signature of a mid-flush kill.
    torn_tail: bool,
}

/// Reads the raw bytes of a memo file, `None` when it does not exist. Only a true
/// I/O error (permissions, hardware, or an injected read fault) fails.
fn read_bytes(path: &Path, faults: Option<&FaultPlan>) -> Result<Option<Vec<u8>>, ExploreError> {
    if let Some(reason) = faults.and_then(FaultPlan::next_store_read_fault) {
        return Err(store_error(path, reason));
    }
    // Bytes, not text: a non-UTF-8 byte is damaged content like any other, and
    // must cost only its own line (see `parse_file`).
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(error) => Err(store_error(path, error)),
    }
}

/// Parses what [`read_bytes`] returned; a missing file is an empty store.
fn parse_read(bytes: Option<&[u8]>) -> LoadedFile {
    bytes.map(parse_file).unwrap_or_default()
}

/// Parses the bytes of a memo file. Content never fails: a wrong header rebuilds,
/// and every other non-blank line is either a record or a damaged line.
fn parse_file(bytes: &[u8]) -> LoadedFile {
    // The lines `str::lines` would yield: split at `\n`, drop a `\r` before it,
    // and no empty piece after a final newline.
    let mut lines: Vec<&[u8]> = bytes
        .split(|&byte| byte == b'\n')
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
        .collect();
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        lines.pop();
    }
    if lines.first().copied() != Some(STORE_FORMAT.as_bytes()) {
        // Stale version or foreign file: rebuild from empty rather than guessing.
        return LoadedFile {
            rebuilt: true,
            ..LoadedFile::default()
        };
    }
    let complete_tail = bytes.ends_with(b"\n");
    let mut loaded = LoadedFile::default();
    for (index, line) in lines.iter().enumerate().skip(1) {
        let parsed = match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => parse_line(text),
            Err(_) => None,
        };
        match parsed {
            Some((key, value)) => {
                loaded
                    .records
                    .entry(key)
                    .and_modify(|resident| *resident = merged(*resident, value))
                    .or_insert(value);
            }
            None => {
                // A complete final line that parses fine but lacks its trailing
                // newline is benign; a *failing* final partial line is a tear.
                if index == lines.len() - 1 && !complete_tail {
                    loaded.torn_tail = true;
                }
                loaded
                    .damaged
                    .push(String::from_utf8_lossy(line).into_owned());
            }
        }
    }
    loaded
}

/// The sidecar file named `{memo file name}.{suffix}` beside `path`.
fn sidecar(path: &Path, suffix: &str) -> PathBuf {
    let file_name = path
        .file_name()
        .and_then(|name| name.to_str())
        .unwrap_or("store");
    path.with_file_name(format!("{file_name}.{suffix}"))
}

/// The sidecar file damaged lines of the memo file at `path` are quarantined to.
pub fn quarantine_path(path: &Path) -> PathBuf {
    sidecar(path, "quarantine")
}

/// The sidecar file every [`ResultStore::flush`] of the memo file at `path` locks.
/// It stays empty and is never removed: a lock holds on the file it was taken
/// on, so deleting the sidecar would let two flushes lock different files.
pub fn lock_path(path: &Path) -> PathBuf {
    sidecar(path, "lock")
}

/// Opens the [`lock_path`] sidecar of the memo file at `path` and waits for an
/// exclusive lock on it, which lasts until the returned file is closed.
fn lock(path: &Path) -> Result<fs::File, ExploreError> {
    let sidecar = fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(lock_path(path))
        .map_err(|error| store_error(path, error))?;
    sidecar.lock().map_err(|error| store_error(path, error))?;
    Ok(sidecar)
}

/// Appends `damaged` lines to the quarantine sidecar (deduplicated — reloading
/// the same damaged file never duplicates its evidence) and returns the sidecar's
/// total line count. Quarantining is best-effort: a sidecar write failure must
/// never turn a salvageable load into an error.
fn quarantine_damaged(path: &Path, damaged: &[String]) -> usize {
    let sidecar = quarantine_path(path);
    let existing = fs::read_to_string(&sidecar).unwrap_or_default();
    let mut lines: std::collections::BTreeSet<&str> = existing
        .lines()
        .filter(|line| !line.trim().is_empty())
        .collect();
    let before = lines.len();
    for line in damaged {
        lines.insert(line.as_str());
    }
    if lines.len() != before {
        let mut out = String::new();
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        let _ = fs::write(&sidecar, out);
    }
    lines.len()
}

/// A snapshot of a store's integrity counters, surfaced by sweep stats and the
/// server's `status` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Records currently held.
    pub records: usize,
    /// Whether the last load found a stale/foreign file and rebuilt from empty.
    pub rebuilt: bool,
    /// Record lines the last load skipped (parse or checksum failures, or not
    /// UTF-8); each one is preserved in the [`quarantine_path`] sidecar.
    pub damaged_lines: usize,
    /// Whether the last load found the file cut mid-record — the signature of a
    /// process killed mid-flush. The torn line is counted in `damaged_lines` and
    /// quarantined like any other.
    pub torn_tail: bool,
    /// Total lines in the quarantine sidecar after the last load.
    pub quarantined: usize,
}

/// The persistent result store: an in-memory record map plus (optionally) the memo
/// file it loads from and flushes to.
///
/// Within one [`explore`](crate::explore) call, repeated sweep points are already
/// cheap (a per-worker compiled-program cache and delta reruns). The store carries
/// that reuse across runs, processes and clients: it memoizes the analysed figures
/// of every evaluated point under an exact [`EvalKey`] and persists them in a
/// versioned memo file. A warm-store sweep collapses to near-lookup cost while its
/// output stays **byte-identical** to a cold run, because the stored figures are
/// f64 bit patterns and the summary is a pure function of the points.
///
/// # The evaluation key
///
/// A stored result is only ever served when *everything* an analysis can observe is
/// provably identical. There is one key kind ([`EvalKey::point`]), taken on the
/// materialized design point before synthesis: a digest and a 128-bit fingerprint
/// of its canonical serialization (name, expression text, output width, every
/// input bit's arrival and probability), a digest of its input profiles, the
/// flow (seed included) and the technology-library identity digest
/// ([`TechLibrary::identity_digest`](dpsyn_tech::TechLibrary::identity_digest)).
/// A hit skips the job entirely, synthesis included, for every flow; point hits
/// are what make a fully warm sweep near-free.
///
/// The digests are independently-seeded splitmix64 chains
/// ([`StructuralHasher::with_seed`]) over canonical word streams, so a stored
/// result can never be served across a renamed design, an edited tech library, a
/// different flow seed or a reprofiled input: each of those perturbs its digest.
///
/// The key also carries a **stimulus digest** ([`stimulus_digest`]): `0` for a
/// purely analytic run, and a digest of the simulated-activity identity (seed,
/// vector count, batch shape) when the sweep carries the simulated switching
/// metric. A simulated record can therefore never be served to a non-simulated
/// sweep or vice versa, and two different stimulus configurations never alias.
///
/// # The memo file
///
/// The on-disk format is line-oriented and self-checking:
///
/// ```text
/// dpsyn-eval-store v3
/// <structural> <fp0> <fp1> <tech> <profiles> <stimulus> <flow> <delay> <area> <energy> <power> <cells> <depth> <sim_power> <checksum>
/// ...
/// ```
///
/// Every numeric field is a fixed-width lowercase-hex u64 (f64s by bit pattern)
/// and every line carries its own chained checksum. Loading **never fails on
/// content**: a missing file is an empty store, a wrong header (old version,
/// foreign file) is detected and the store rebuilt from empty
/// ([`StoreHealth::rebuilt`]), and any line that fails to parse or checksum (or is
/// not UTF-8) is skipped, counted ([`StoreHealth::damaged_lines`]) and
/// **quarantined** to a sidecar file ([`quarantine_path`]), so the evidence of a
/// torn or corrupted write survives the next canonical flush. A file whose final
/// line is cut mid-record (no trailing newline) is also flagged as a torn tail
/// ([`StoreHealth::torn_tail`]), the signature of a process killed mid-flush. A
/// truncated write therefore costs at most the truncated line, and the loss is
/// visible, never silent.
///
/// For crash-safety testing, a [`FaultPlan`] can be attached
/// ([`load_with_faults`](Self::load_with_faults)): every read and write of the memo
/// file then consults the plan first, so a suite can kill a flush at an exact step
/// and assert the recovery (see [`crate::faults`]).
///
/// [`flush`](Self::flush) is atomic and merge-convergent, and it costs what
/// changed: a store with nothing new does no I/O, and bytes the store already
/// knows are never parsed again. Its rustdoc gives the rules.
#[derive(Debug, Clone)]
pub struct ResultStore {
    path: Option<PathBuf>,
    records: BTreeMap<EvalKey, StoredEval>,
    rebuilt: bool,
    damaged_lines: usize,
    torn_tail: bool,
    quarantined: usize,
    /// The exact bytes of the memo file as this store last read and merged it, or
    /// wrote and verified it; `None` while the file was absent or never seen.
    /// Every record in these bytes is already in `records` (records only ever
    /// merge in), so a pre-read that returns them has nothing to merge.
    disk: Option<Arc<[u8]>>,
    /// Whether the memo file needs a write: set by a load whose bytes are not the
    /// canonical rendering, a new key or a merge that changes a value; cleared by
    /// a verified flush.
    dirty: bool,
    /// Fault-injection plan every file read/write consults; `None` in production.
    faults: Option<Arc<FaultPlan>>,
}

impl ResultStore {
    /// An empty store with no backing file — [`flush`](Self::flush) is a no-op.
    /// The server mode uses this when run without a store path.
    pub fn in_memory() -> Self {
        ResultStore {
            path: None,
            records: BTreeMap::new(),
            rebuilt: false,
            damaged_lines: 0,
            torn_tail: false,
            quarantined: 0,
            disk: None,
            dirty: false,
            faults: None,
        }
    }

    /// An empty store that *keeps* `path` as its backing file without touching
    /// the filesystem. The server's degraded mode starts from this when the memo
    /// file cannot be loaded: sweeps compute through in memory, and every flush
    /// retries the real file — so the store recovers the moment the path does.
    /// The store starts dirty, so its first flush writes the file.
    pub fn empty_at(path: impl Into<PathBuf>, faults: Option<Arc<FaultPlan>>) -> Self {
        ResultStore {
            path: Some(path.into()),
            dirty: true,
            faults,
            ..ResultStore::in_memory()
        }
    }

    /// Loads (or initializes) the store at `path`. A missing file yields an empty
    /// store; a stale or foreign file is detected and rebuilt from empty
    /// ([`health`](Self::health) reports it); corrupt lines are skipped, counted
    /// and quarantined to the [`quarantine_path`] sidecar.
    ///
    /// The store starts dirty only when the file needs a rewrite: when it is
    /// missing, or its bytes differ from the canonical rendering of the loaded
    /// records (damaged lines, a torn tail, a stale header, unsorted lines). The
    /// first [`flush`](Self::flush) then rewrites it as canonical bytes. A clean
    /// load's flush does no file I/O until something new is recorded.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Store`] only for true I/O failures (permissions,
    /// hardware) — never for content.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, ExploreError> {
        Self::load_with_faults(path, None)
    }

    /// [`load`](Self::load) with a fault-injection plan attached: this load and
    /// every later [`flush`](Self::flush) consult the plan before touching the
    /// memo file. See [`crate::faults`].
    ///
    /// # Errors
    ///
    /// As [`load`](Self::load), plus the plan's injected read faults.
    pub fn load_with_faults(
        path: impl Into<PathBuf>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<Self, ExploreError> {
        let path = path.into();
        let bytes = read_bytes(&path, faults.as_deref())?;
        let loaded = parse_read(bytes.as_deref());
        let quarantined = if loaded.damaged.is_empty() {
            fs::read_to_string(quarantine_path(&path))
                .map(|text| text.lines().filter(|line| !line.trim().is_empty()).count())
                .unwrap_or(0)
        } else {
            quarantine_damaged(&path, &loaded.damaged)
        };
        let mut store = ResultStore {
            path: Some(path),
            records: loaded.records,
            rebuilt: loaded.rebuilt,
            damaged_lines: loaded.damaged.len(),
            torn_tail: loaded.torn_tail,
            quarantined,
            disk: bytes.map(Arc::from),
            dirty: true,
            faults,
        };
        // Every defect of the file (damaged lines, a torn tail, a stale header)
        // makes its bytes differ from the canonical rendering of the records.
        store.dirty = !store
            .disk
            .as_deref()
            .is_some_and(|disk| store.renders_as(disk));
        Ok(store)
    }

    /// The backing memo file, when the store has one.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Snapshot of the store's integrity counters.
    pub fn health(&self) -> StoreHealth {
        StoreHealth {
            records: self.records.len(),
            rebuilt: self.rebuilt,
            damaged_lines: self.damaged_lines,
            torn_tail: self.torn_tail,
            quarantined: self.quarantined,
        }
    }

    /// Number of memoized records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks one key up. Shared references suffice, so worker threads probe the
    /// store concurrently without any lock.
    pub fn lookup(&self, key: &EvalKey) -> Option<StoredEval> {
        self.records.get(key).copied()
    }

    /// Records one evaluation; a conflicting resident value is resolved by the
    /// deterministic merge rule. Only a new key or a changed value leaves the
    /// store with something to [`flush`](Self::flush).
    pub fn record(&mut self, key: EvalKey, value: StoredEval) {
        match self.records.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(value);
                self.dirty = true;
            }
            Entry::Occupied(mut resident) => {
                let winner = merged(*resident.get(), value);
                if winner != *resident.get() {
                    resident.insert(winner);
                    self.dirty = true;
                }
            }
        }
    }

    /// Merges a batch of records (e.g. the fresh results of one exploration).
    pub fn merge(&mut self, records: impl IntoIterator<Item = (EvalKey, StoredEval)>) {
        for (key, value) in records {
            self.record(key, value);
        }
    }

    /// Writes the store to its memo file atomically (temp file + rename) after
    /// union-merging whatever is on disk, then verifies its own records survived,
    /// retrying when a concurrent flush won the rename race. Afterwards the file
    /// holds the deterministic union: records sorted by key, one canonical line
    /// each, so the final bytes are independent of flush order.
    ///
    /// A flush costs what changed:
    ///
    /// * A store without a path, or one with nothing new since it was loaded from
    ///   canonical bytes or last flushed, returns `Ok(())` with no file I/O.
    ///   [`empty_at`](Self::empty_at) starts dirty, [`load`](Self::load) starts
    ///   dirty when the file needs a rewrite, and a failed flush leaves the store
    ///   dirty, so a degraded store keeps retrying.
    /// * Otherwise the flush reads the file, and parses and merges it only when its
    ///   bytes differ from the exact bytes the store last read and merged or wrote
    ///   and verified. Damaged lines found there are quarantined to the
    ///   [`quarantine_path`] sidecar before the rewrite drops them.
    /// * After the write it reads the file back. Bytes equal to the payload verify
    ///   the flush outright; other bytes (a writer in another process won the
    ///   rename) are parsed and checked for this store's records, and the loop
    ///   retries when they are missing.
    ///
    /// Flushes of one memo file take turns: each holds an exclusive lock on the
    /// [`lock_path`] sidecar for its whole read–write–verify. Locks taken through
    /// separate opens of the sidecar exclude each other within one process as
    /// across processes, so stores that share a path never drop each other's
    /// records, whichever process holds them. The verify still guards against a
    /// writer that does not take the lock.
    ///
    /// Bytes are compared exactly, never by digest. A dirty flush does one read,
    /// one write and one read per attempt, the steps a [`FaultPlan`] counts; taking
    /// the lock is not a counted step.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Store`] on true I/O failure, or when the
    /// merge-verify loop cannot converge within its bounded retries.
    pub fn flush(&mut self) -> Result<(), ExploreError> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        if !self.dirty {
            return Ok(());
        }
        // Held until the flush returns: closing the sidecar releases the lock.
        let _flushing = lock(&path)?;
        let faults = self.faults.clone();
        for _ in 0..FLUSH_ATTEMPTS {
            let on_disk = read_bytes(&path, faults.as_deref())?;
            if on_disk.as_deref() != self.disk.as_deref() {
                let loaded = parse_read(on_disk.as_deref());
                if !loaded.damaged.is_empty() {
                    self.quarantined = quarantine_damaged(&path, &loaded.damaged);
                }
                self.merge(loaded.records);
                self.disk = on_disk.map(Arc::from);
            }
            let payload = self.render();
            self.write_atomic(&path, &payload)?;
            let reread = read_bytes(&path, faults.as_deref())?;
            let converged = reread.as_deref() == Some(payload.as_slice()) || {
                let reread = parse_read(reread.as_deref());
                self.records.iter().all(|(key, value)| {
                    reread
                        .records
                        .get(key)
                        .is_some_and(|disk| merged(*disk, *value) == *disk)
                })
            };
            if converged {
                // The payload's records are exactly this store's, so it is the
                // right `disk` even when another writer's bytes are on the file:
                // the next dirty flush then parses and merges theirs.
                self.disk = Some(Arc::from(payload));
                self.dirty = false;
                return Ok(());
            }
        }
        Err(store_error(
            &path,
            "concurrent flushes kept overwriting each other; giving up after bounded retries",
        ))
    }

    /// The canonical memo-file bytes of the store: the header, then one line per
    /// record in key order.
    fn render(&self) -> Vec<u8> {
        // Record lines are about 250 bytes; one allocation covers the file.
        let mut out = Vec::with_capacity(256 * (self.records.len() + 1));
        out.extend_from_slice(STORE_FORMAT.as_bytes());
        out.push(b'\n');
        for (key, value) in &self.records {
            push_line(&mut out, key, value);
            out.push(b'\n');
        }
        out
    }

    /// Whether `bytes` are exactly [`render`](Self::render)'s output, compared
    /// line by line so that no copy of the file is built.
    fn renders_as(&self, bytes: &[u8]) -> bool {
        let Some(mut rest) = bytes
            .strip_prefix(STORE_FORMAT.as_bytes())
            .and_then(|rest| rest.strip_prefix(b"\n"))
        else {
            return false;
        };
        let mut line = Vec::with_capacity(256);
        for (key, value) in &self.records {
            line.clear();
            push_line(&mut line, key, value);
            line.push(b'\n');
            match rest.strip_prefix(line.as_slice()) {
                Some(tail) => rest = tail,
                None => return false,
            }
        }
        rest.is_empty()
    }

    fn write_atomic(&self, path: &Path, payload: &[u8]) -> Result<(), ExploreError> {
        let fault = self
            .faults
            .as_deref()
            .and_then(FaultPlan::next_store_write_fault);
        if matches!(fault, Some(WriteFault::Error)) {
            return Err(store_error(path, "injected store write fault: I/O error"));
        }
        let file_name = path
            .file_name()
            .and_then(|name| name.to_str())
            .unwrap_or("store");
        // Per flush, not per process: no two flushes of one process ever share a
        // temp file, whatever serializes them.
        let flush_id = TEMP_FILES.fetch_add(1, Ordering::Relaxed);
        let temp =
            path.with_file_name(format!("{file_name}.tmp.{}.{flush_id}", std::process::id()));
        // An injected torn write truncates the payload and still renames it into
        // place (the tear lands in the real memo file — the data loss of a kill
        // right after the rename); a crash-before-rename writes the full temp
        // file and leaves it orphaned. Both then report the injected error, as a
        // killed process would leave its caller with a failed flush.
        let payload = match fault {
            Some(WriteFault::Torn { keep_bytes }) => &payload[..keep_bytes.min(payload.len())],
            _ => payload,
        };
        let write = || -> std::io::Result<()> {
            let mut file = fs::File::create(&temp)?;
            file.write_all(payload)?;
            file.sync_all()?;
            if matches!(fault, Some(WriteFault::CrashBeforeRename)) {
                return Ok(());
            }
            fs::rename(&temp, path)
        };
        write().map_err(|error| {
            let _ = fs::remove_file(&temp);
            store_error(path, error)
        })?;
        match fault {
            Some(WriteFault::Torn { .. }) => Err(store_error(
                path,
                "injected store write fault: torn write (killed mid-flush)",
            )),
            Some(WriteFault::CrashBeforeRename) => Err(store_error(
                path,
                "injected store write fault: crash before rename",
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(salt: u64) -> EvalKey {
        EvalKey {
            structural: salt,
            fingerprint: [salt ^ 1, salt ^ 2],
            tech: 7,
            flow: "conventional".to_string(),
            profiles: salt ^ 3,
            stimulus: 0,
        }
    }

    fn value(delay: f64) -> StoredEval {
        StoredEval {
            delay,
            area: 12.5,
            switching_energy: 3.25,
            power_mw: 0.75,
            cell_count: 42,
            logic_depth: 9,
            simulated_switch_power: 0.125,
        }
    }

    #[test]
    fn line_roundtrip_is_exact() {
        let key = key(0xdead_beef);
        let value = value(1.625);
        let line = format_line(&key, &value);
        let (parsed_key, parsed_value) = parse_line(&line).expect("line parses");
        assert_eq!(parsed_key, key);
        assert_eq!(parsed_value, value);
    }

    #[test]
    fn corrupt_lines_fail_the_checksum() {
        let line = format_line(&key(5), &value(2.0));
        // Flip one hex digit of the delay field.
        let tampered = {
            let mut tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
            let delay = tokens[7].clone();
            tokens[7] = match delay.strip_prefix('0') {
                Some(rest) => format!("1{rest}"),
                None => format!("0{}", &delay[1..]),
            };
            tokens.join(" ")
        };
        assert!(parse_line(&tampered).is_none(), "bit flip must be rejected");
        assert!(parse_line("nonsense").is_none());
        assert!(parse_line("").is_none());
    }

    #[test]
    fn merge_rule_is_commutative_and_idempotent() {
        let small = value(1.0);
        let large = value(2.0);
        assert_eq!(merged(small, large), merged(large, small));
        assert_eq!(merged(small, small), small);
        assert_eq!(merged(small, large), small);
    }

    #[test]
    fn point_keys_track_every_identity_component() {
        let tech = dpsyn_tech::TechLibrary::lcbg10pv_like().identity_digest();
        let design = dpsyn_designs::x_squared();
        let base = EvalKey::point(&design, Flow::FaAot, tech, 0);
        assert_eq!(base, EvalKey::point(&design, Flow::FaAot, tech, 0));
        assert_ne!(base, EvalKey::point(&design, Flow::FaAlp, tech, 0));
        assert_ne!(
            base,
            EvalKey::point(&design, Flow::FaRandom(1), tech, 0),
            "the fa_random seed is part of the flow identity"
        );
        assert_ne!(
            EvalKey::point(&design, Flow::FaAnneal(1), tech, 0),
            EvalKey::point(&design, Flow::FaAnneal(2), tech, 0),
            "the fa_anneal seed is part of the flow identity"
        );
        assert_ne!(
            EvalKey::point(&design, Flow::FaRandom(1), tech, 0),
            EvalKey::point(&design, Flow::FaAnneal(1), tech, 0),
            "equal seeds of different seeded flows never alias"
        );
        assert_ne!(base, EvalKey::point(&design, Flow::FaAot, tech ^ 1, 0));
        assert_ne!(
            base,
            EvalKey::point(&design, Flow::FaAot, tech, 1),
            "the stimulus digest is part of the point key"
        );
        let reprofiled = design.with_uniform_arrival_skew(9, 2.0);
        assert_ne!(base, EvalKey::point(&reprofiled, Flow::FaAot, tech, 0));
        assert_ne!(
            base,
            EvalKey::point(&dpsyn_designs::x_cubed(), Flow::FaAot, tech, 0)
        );
    }

    #[test]
    fn stimulus_digests_track_the_request() {
        use crate::spec::SimActivity;
        let base = stimulus_digest(SimActivity {
            seed: 5,
            vectors: 256,
        });
        assert_ne!(
            base, 0,
            "a real activity never digests to the analytic zero"
        );
        assert_eq!(
            base,
            stimulus_digest(SimActivity {
                seed: 5,
                vectors: 256
            })
        );
        assert_ne!(
            base,
            stimulus_digest(SimActivity {
                seed: 6,
                vectors: 256
            })
        );
        assert_ne!(
            base,
            stimulus_digest(SimActivity {
                seed: 5,
                vectors: 128
            })
        );
    }

    #[test]
    fn in_memory_store_flush_is_a_noop() {
        let mut store = ResultStore::in_memory();
        store.record(key(1), value(1.0));
        assert_eq!(store.len(), 1);
        assert!(store.lookup(&key(1)).is_some());
        assert!(store.lookup(&key(2)).is_none());
        store.flush().expect("no backing file, nothing to do");
    }

    /// A scratch memo file for one test, with its quarantine sidecar removed.
    fn scratch(test: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "dpsyn-store-unit-{}-{test}.txt",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(quarantine_path(&path));
        path
    }

    fn cleanup(path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(quarantine_path(path));
    }

    #[test]
    fn a_clean_flush_does_no_io() {
        let path = scratch("clean-flush");
        // The load is read 1; the first flush is read 2, write 1 and read 3. Every
        // store read and write after that fails.
        let plan = FaultPlan::builder()
            .store_read_outage(4, u64::MAX)
            .store_write_outage(2, u64::MAX)
            .build();
        let mut store =
            ResultStore::load_with_faults(&path, Some(Arc::clone(&plan))).expect("store loads");
        store.record(key(1), value(1.0));
        store
            .flush()
            .expect("the first flush runs before the outage");
        assert_eq!((plan.read_ops(), plan.write_ops()), (3, 1));

        store
            .flush()
            .expect("a flush with nothing new touches no file");
        store.record(key(1), value(1.0));
        store.record(key(1), value(2.0));
        store
            .flush()
            .expect("re-recording a resident value or a losing one is not new");
        assert_eq!((plan.read_ops(), plan.write_ops()), (3, 1), "no I/O at all");

        store.record(key(2), value(1.0));
        assert!(store.flush().is_err(), "a new key makes the flush read");
        assert!(
            store.flush().is_err(),
            "a failed flush leaves the store dirty, so it retries"
        );
        cleanup(&path);
    }

    #[test]
    fn a_clean_load_flushes_without_io_and_a_damaged_or_stale_one_rewrites() {
        let path = scratch("clean-load");
        let mut seeded = ResultStore::load(&path).expect("missing file loads");
        seeded.record(key(1), value(1.0));
        seeded.record(key(2), value(2.0));
        seeded.flush().expect("seeding flush");
        let canonical = fs::read(&path).expect("read the seeded file");
        let modified = || fs::metadata(&path).and_then(|meta| meta.modified()).ok();

        // A clean load: the flush reads, writes and renames nothing, and a later
        // new record still reaches the file.
        let plan = FaultPlan::builder().build();
        let mut clean =
            ResultStore::load_with_faults(&path, Some(Arc::clone(&plan))).expect("clean load");
        let stamp = modified();
        clean.flush().expect("a clean load has nothing to flush");
        assert_eq!((plan.read_ops(), plan.write_ops()), (1, 0), "the load only");
        assert_eq!(modified(), stamp);
        assert_eq!(fs::read(&path).expect("read"), canonical);
        clean.record(key(3), value(3.0));
        clean.flush().expect("a new record flushes");
        assert_eq!(plan.write_ops(), 1);
        assert_eq!(ResultStore::load(&path).expect("reload").len(), 3);

        // A damaged line, a torn tail and a stale header each make the load dirty,
        // so its first flush rewrites the file as canonical bytes.
        let canonical = fs::read(&path).expect("read the three-record file");
        let text = String::from_utf8(canonical.clone()).expect("the memo file is text");
        let stale = text.replacen(STORE_FORMAT, "dpsyn-explore-store v0", 1);
        for (case, bytes) in [
            ("damaged", format!("{text}garbage line\n")),
            ("torn", text[..text.len() - 7].to_string()),
            ("stale", stale),
        ] {
            fs::write(&path, &bytes).expect("write the defective file");
            let mut store = ResultStore::load(&path).expect("a defective file loads");
            store.flush().expect("the rewrite flushes");
            let rewritten = fs::read(&path).expect("read the rewrite");
            assert_ne!(
                rewritten,
                bytes.as_bytes(),
                "{case}: the file was rewritten"
            );
            assert_eq!(rewritten, store.render(), "{case}: as canonical bytes");
        }
        cleanup(&path);
    }

    #[test]
    fn a_flush_over_stale_disk_bytes_still_unions_both_sides() {
        let path = scratch("stale-disk");
        let mut first = ResultStore::load(&path).expect("first store loads");
        first.record(key(1), value(1.0));
        first.flush().expect("first flush");
        // Another store rewrites the file behind the first one's back.
        let mut second = ResultStore::load(&path).expect("second store loads");
        second.record(key(2), value(2.0));
        second.flush().expect("second flush");
        first.record(key(3), value(3.0));
        first.flush().expect("a flush over stale disk bytes");

        let union = ResultStore::load(&path).expect("union loads");
        assert_eq!(union.len(), 3, "the flush merged the other store's record");
        assert_eq!(first.len(), 3, "and took it into memory");
        assert_eq!(fs::read(&path).expect("read union"), first.render());
        cleanup(&path);
    }

    #[test]
    fn the_first_flush_after_a_non_canonical_load_writes_canonical_bytes() {
        let path = scratch("non-canonical");
        let line = |salt, delay| format_line(&key(salt), &value(delay));
        // Unsorted lines, one key twice with different values, CRLF line ends and
        // no final newline.
        let text = format!(
            "{STORE_FORMAT}\r\n{}\r\n{}\n{}\r\n{}",
            line(9, 1.0),
            line(2, 4.0),
            line(2, 3.0),
            line(5, 1.0)
        );
        fs::write(&path, text).expect("write a non-canonical file");
        let mut store = ResultStore::load(&path).expect("non-canonical file loads");
        assert_eq!(store.health().damaged_lines, 0);
        store.flush().expect("the first flush rewrites");

        let mut canonical = String::from(STORE_FORMAT);
        for (salt, delay) in [(2, 3.0), (5, 1.0), (9, 1.0)] {
            canonical.push('\n');
            canonical.push_str(&line(salt, delay));
        }
        canonical.push('\n');
        assert_eq!(fs::read_to_string(&path).expect("read rewrite"), canonical);
        cleanup(&path);
    }

    /// A record built from arbitrary words: any f64 bit pattern (NaN payloads
    /// included), any counts, and a flow token of printable garbage.
    fn record(words: &[u64], flow: u64) -> (EvalKey, StoredEval) {
        let flow = crate::faults::deterministic_garbage(flow, 1 + (flow % 24) as usize);
        let key = EvalKey {
            structural: words[0],
            fingerprint: [words[1], words[2]],
            tech: words[3],
            flow: String::from_utf8(flow).expect("garbage is printable ASCII"),
            profiles: words[4],
            stimulus: words[5],
        };
        let value = StoredEval {
            delay: f64::from_bits(words[6]),
            area: f64::from_bits(words[7]),
            switching_energy: f64::from_bits(words[8]),
            power_mw: f64::from_bits(words[9]),
            cell_count: words[10] as usize,
            logic_depth: words[11] as usize,
            simulated_switch_power: f64::from_bits(words[12]),
        };
        (key, value)
    }

    /// Any u64, with NaNs (either sign, any payload), infinities and signed zeros
    /// drawn far more often than uniform bits would.
    fn float_word() -> BoxedStrategy<u64> {
        prop_oneof![
            any::<u64>(),
            (1u64..1 << 52).prop_map(|payload| 0x7ff0_0000_0000_0000 | payload),
            (1u64..1 << 52).prop_map(|payload| 0xfff0_0000_0000_0000 | payload),
            (0usize..4).prop_map(|index| {
                [0.0f64, -0.0, f64::INFINITY, f64::NEG_INFINITY][index].to_bits()
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `format_line` → `parse_line` gives back every key and every value bit
        /// pattern exactly.
        #[test]
        fn record_lines_roundtrip_every_bit_pattern(
            words in prop::collection::vec(float_word(), 13),
            flow in any::<u64>(),
        ) {
            let (key, value) = record(&words, flow);
            let line = format_line(&key, &value);
            let (parsed_key, parsed_value) = parse_line(&line).expect("a formatted line parses");
            prop_assert_eq!(&parsed_key, &key);
            prop_assert_eq!(parsed_value.bits(), value.bits());
            prop_assert_eq!(format_line(&parsed_key, &parsed_value), line);
        }

        /// The fixed-width writer renders exactly the `format!` line.
        #[test]
        fn fixed_width_writer_matches_the_format_reference(
            words in prop::collection::vec(float_word(), 13),
            flow in any::<u64>(),
        ) {
            let (key, value) = record(&words, flow);
            let mut line = Vec::new();
            push_line(&mut line, &key, &value);
            prop_assert_eq!(String::from_utf8(line).expect("lines are ASCII"), format_line(&key, &value));
        }

        /// Any body after a valid header loads: every non-blank line is either a
        /// record or a damaged line, and only a damaged unterminated last line is a
        /// torn tail.
        #[test]
        fn any_memo_body_loads_and_accounts_for_every_line(
            lines in prop::collection::vec(
                (
                    0u8..5,
                    prop::collection::vec(float_word(), 13),
                    any::<u64>(),
                    prop::collection::vec(any::<u8>(), 0..48),
                ),
                0..24,
            ),
            final_newline in any::<bool>(),
        ) {
            let mut bytes = format!("{STORE_FORMAT}\n").into_bytes();
            let mut records = BTreeMap::new();
            let mut damaged = 0;
            let mut last_damaged = false;
            for (index, (kind, words, seed, raw)) in lines.iter().enumerate() {
                let mut words = words.clone();
                // A distinct structural word per line keeps every record's key unique.
                words[0] = index as u64;
                let (key, value) = record(&words, *seed);
                let valid = format_line(&key, &value).into_bytes();
                let line: Vec<u8> = match kind {
                    0 => {
                        records.insert(key, value);
                        valid
                    }
                    // A record line with one byte made non-UTF-8.
                    1 => {
                        let mut line = valid;
                        let at = (*seed as usize) % line.len();
                        line[at] = 0xff;
                        line
                    }
                    // A record line cut short, as a torn write leaves it.
                    2 => valid[..1 + (*seed as usize) % (valid.len() - 1)].to_vec(),
                    3 => crate::faults::deterministic_garbage(*seed, 1 + raw.len()),
                    // Raw bytes, any of them, minus line breaks.
                    _ => raw.iter().copied().filter(|byte| !matches!(byte, b'\n' | b'\r')).collect(),
                };
                let blank = std::str::from_utf8(&line).is_ok_and(|text| text.trim().is_empty());
                if kind != &0 && !blank {
                    damaged += 1;
                }
                last_damaged = kind != &0 && !blank;
                if index > 0 {
                    bytes.push(b'\n');
                }
                bytes.extend_from_slice(&line);
            }
            if final_newline && !lines.is_empty() {
                bytes.push(b'\n');
            }
            let loaded = parse_file(&bytes);
            prop_assert!(!loaded.rebuilt);
            prop_assert_eq!(&loaded.records, &records);
            prop_assert_eq!(loaded.damaged.len(), damaged);
            prop_assert_eq!(loaded.torn_tail, last_damaged && !final_newline);
        }
    }
}
