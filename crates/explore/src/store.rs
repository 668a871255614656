//! The persistent cross-run evaluation store.
//!
//! PR 5/6 made repeated sweep points cheap *within* one [`explore`](crate::explore)
//! call (per-worker compiled-program cache + delta reruns), but every process still
//! re-evaluated the whole matrix from scratch. This module promotes that reuse
//! across runs, processes and clients: a [`ResultStore`] memoizes the analysed
//! figures of every evaluated point under an exact [`EvalKey`] and persists them in
//! a versioned on-disk memo file, so a warm-store sweep collapses to near-lookup
//! cost while its output stays **byte-identical** to a cold run (the stored figures
//! are f64 bit patterns, and the summary is a pure function of the points).
//!
//! # The evaluation key
//!
//! A stored result is only ever served when *everything* an analysis can observe is
//! provably identical. Two key stages share one shape ([`EvalKey`]):
//!
//! * [`EvalStage::Analysis`] — keyed on the synthesized netlist, exactly as the
//!   issue of record specifies: the structural hash, a 128-bit fingerprint of the
//!   **exact** structural serialization ([`Netlist::structural_words`] — the
//!   lossless, versioned counterpart of the folded `cell_ops` identity the
//!   per-worker cache verifies), the technology-library identity digest
//!   ([`TechLibrary::identity_digest`](dpsyn_tech::TechLibrary::identity_digest)),
//!   the flow name, and a digest of the per-net input profiles. This serves the
//!   synthesize-then-analyse flows (`conventional`, `csa_opt`): a warm hit skips the
//!   whole compile + timing + power + area bundle.
//! * [`EvalStage::Point`] — keyed one level earlier, on the materialized design
//!   itself (name, expression text, output width, every input bit's arrival and
//!   probability), the flow and the tech digest. Flows that analyse *during*
//!   synthesis (the FA-tree family) never expose an unanalysed netlist, so only a
//!   design-level key can collapse them to lookup cost; for the module-binding
//!   flows it additionally skips synthesis. Point hits are what makes a fully warm
//!   sweep near-free.
//!
//! Both fingerprints are independently-seeded splitmix64 chains
//! ([`StructuralHasher::with_seed`]) over canonical word streams, so a stored
//! result can never be served across a renamed design, an edited tech library, a
//! different flow seed or a reprofiled input — each of those perturbs its digest.
//!
//! Both stages additionally carry a **stimulus digest**: `0` for a purely analytic
//! run, and a digest of the simulated-activity identity (seed, vector count, batch
//! shape — plus, at the analysis stage, the exact bit-to-net stimulus layout) when
//! the sweep carries the simulated switching metric. A simulated record can
//! therefore never be served to a non-simulated sweep or vice versa, and two
//! different stimulus configurations never alias.
//!
//! # The memo file
//!
//! The on-disk format is deliberately line-oriented and self-checking:
//!
//! ```text
//! dpsyn-eval-store v2
//! A <structural> <fp0> <fp1> <tech> <profiles> <stimulus> <flow> <delay> <area> <energy> <power> <cells> <depth> <sim_power> <checksum>
//! P ...
//! ```
//!
//! every numeric field a fixed-width lowercase-hex u64 (f64s by bit pattern) and
//! every line carrying its own chained checksum. Loading **never fails on content**:
//! a missing file is an empty store, a wrong header (old version, foreign file) is
//! detected and the store rebuilt from empty ([`StoreHealth::rebuilt`]), and any
//! line that fails to parse or checksum (or is not UTF-8) is skipped, counted
//! ([`StoreHealth::damaged_lines`]) and **quarantined** to a sidecar file
//! ([`quarantine_path`]) so the evidence of a torn or corrupted write survives the
//! next canonical flush. A file whose final line is cut mid-record (no trailing
//! newline) is additionally flagged as a torn tail ([`StoreHealth::torn_tail`]) —
//! the signature of a process killed mid-flush. A truncated write therefore costs
//! at most the truncated line, and the loss is visible, never silent.
//!
//! For crash-safety testing, a [`FaultPlan`] can be attached
//! ([`ResultStore::load_with_faults`]): every read and write of the memo file then
//! consults the plan first, so a suite can kill a flush at an exact step and
//! assert the recovery — see [`crate::faults`].
//!
//! [`ResultStore::flush`] is atomic and merge-convergent: it re-reads the file,
//! unions the on-disk records into its own (ties broken by the deterministic
//! smaller-value rule, so the union is commutative), writes a temp file **sorted by
//! key** and renames it over the store, then re-reads to verify its own records
//! survived — retrying when a concurrent flush won the rename race. Because the
//! merged record set and the line format are both canonical, the final file bytes
//! are independent of which process flushed last.

use crate::error::ExploreError;
use crate::faults::{FaultPlan, WriteFault};
use dpsyn_baselines::Flow;
use dpsyn_designs::Design;
use dpsyn_netlist::{NetId, Netlist, StructuralHasher};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Header line of the memo file; the version suffix guards the record layout.
pub const STORE_FORMAT: &str = "dpsyn-eval-store v2";

/// Bounded retries for the flush merge-verify loop under concurrent writers.
const FLUSH_ATTEMPTS: usize = 16;

/// Independent seeds for the two fingerprint chains, the two profile/primary
/// digests and the per-line checksum. Any two digests of the same words differ
/// because their chains start differently.
const FINGERPRINT_SEEDS: [u64; 2] = [0x9d5c_41e7_3b28_f601, 0x5e8a_02c9_d714_6fb3];
const POINT_PRIMARY_SEED: u64 = 0x31f6_88ad_0c52_e947;
const PROFILE_SEED: u64 = 0xc703_5a1e_92d8_4b65;
const LINE_SEED: u64 = 0x84b2_d90f_671c_3ae5;
const STIMULUS_SEED: u64 = 0x2f9e_6c83_b1d7_054a;

/// Which level of the evaluation pipeline a stored record memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EvalStage {
    /// Keyed on the synthesized netlist: a hit skips the analysis bundle.
    Analysis,
    /// Keyed on the materialized design point: a hit skips synthesis too.
    Point,
}

impl EvalStage {
    fn tag(self) -> &'static str {
        match self {
            EvalStage::Analysis => "A",
            EvalStage::Point => "P",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "A" => Some(EvalStage::Analysis),
            "P" => Some(EvalStage::Point),
            _ => None,
        }
    }
}

/// The exact identity a stored evaluation is keyed by; the `store` module docs say
/// what each component covers.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EvalKey {
    /// Which pipeline level the record memoizes.
    pub stage: EvalStage,
    /// The primary probe word: [`Netlist::structural_hash`] for analysis records,
    /// a seeded digest of the design identity for point records.
    pub structural: u64,
    /// 128-bit fingerprint of the exact canonical serialization (two
    /// independently-seeded chains over the same word stream).
    pub fingerprint: [u64; 2],
    /// The technology library's identity digest.
    pub tech: u64,
    /// The flow identity (includes the seed for `fa_random` / `fa_anneal`).
    pub flow: String,
    /// Digest of the input profiles the figures were computed under.
    pub profiles: u64,
    /// Digest of the stimulus the simulated switching metric was computed under —
    /// `0` for a purely analytic run. Build it with [`stimulus_digest`] (point
    /// stage) or [`stimulus_layout_digest`] (analysis stage, which folds the exact
    /// bit-to-net stimulus layout because analysis keys are name-blind).
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
    /// Keys one synthesized-but-unanalysed netlist: the issue-specified
    /// `(structural_hash, exact serialization fingerprint, tech identity, flow,
    /// input-profile digest)` tuple, plus the stimulus digest (`0` when the sweep
    /// carries no simulated metric). Compute `profiles` with [`profile_digest`]
    /// from the same per-net maps the analyses will consume, and `stimulus` with
    /// [`stimulus_layout_digest`] over the same word map the simulation packs.
    pub fn analysis(
        netlist: &Netlist,
        tech: u64,
        flow: &str,
        profiles: u64,
        stimulus: u64,
    ) -> EvalKey {
        debug_assert!(
            !flow.chars().any(char::is_whitespace),
            "flow identifiers must be single tokens"
        );
        let words = netlist.structural_words();
        EvalKey {
            stage: EvalStage::Analysis,
            structural: netlist.structural_hash(),
            fingerprint: [
                chain(FINGERPRINT_SEEDS[0], &words),
                chain(FINGERPRINT_SEEDS[1], &words),
            ],
            tech,
            flow: flow.to_string(),
            profiles,
            stimulus,
        }
    }

    /// Keys one materialized design point before synthesis: name, expression
    /// text, output width and every input bit's exact arrival/probability, times
    /// the flow (seed included) and the tech digest. The name is part of the key
    /// because rendered summaries carry it — a renamed twin falls through to the
    /// name-blind analysis stage instead. `stimulus` is [`stimulus_digest`] of the
    /// sweep's simulated-activity request, or `0` for an analytic sweep.
    pub fn point(design: &Design, flow: Flow, tech: u64, stimulus: u64) -> EvalKey {
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
            stage: EvalStage::Point,
            structural: chain(POINT_PRIMARY_SEED, &words),
            fingerprint: [
                chain(FINGERPRINT_SEEDS[0], &words),
                chain(FINGERPRINT_SEEDS[1], &words),
            ],
            tech,
            flow: flow.to_string(),
            profiles: chain(PROFILE_SEED, &profile_words),
            stimulus,
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

/// Extends a [`stimulus_digest`] with the exact bit-to-net stimulus layout of one
/// word map: per input word in declaration order, the bit count and each bit's net
/// index. Analysis keys are name-blind, so without the layout two structurally
/// identical netlists whose inputs bind the stimulus differently could alias.
pub fn stimulus_layout_digest(base: u64, word_map: &dpsyn_netlist::WordMap) -> u64 {
    let mut words = vec![base, word_map.inputs().len() as u64];
    for word in word_map.inputs() {
        words.push(word.bits().len() as u64);
        for bit in word.bits() {
            words.push(bit.index() as u64);
        }
    }
    chain(STIMULUS_SEED, &words)
}

impl fmt::Display for EvalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {}",
            self.stage.tag(),
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

/// Digest of the per-net input profiles an analysis consumes — the maps
/// [`dpsyn_baselines::input_profiles`] produces, folded net-by-net with exact f64
/// bit patterns.
pub fn profile_digest(
    arrivals: &BTreeMap<NetId, f64>,
    probabilities: &BTreeMap<NetId, f64>,
) -> u64 {
    let mut hasher = StructuralHasher::with_seed(PROFILE_SEED);
    hasher.write(arrivals.len() as u64);
    for (net, arrival) in arrivals {
        hasher.write(net.index() as u64);
        hasher.write(arrival.to_bits());
    }
    hasher.write(probabilities.len() as u64);
    for (net, probability) in probabilities {
        hasher.write(net.index() as u64);
        hasher.write(probability.to_bits());
    }
    hasher.finish()
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
    hasher.write(match key.stage {
        EvalStage::Analysis => 0,
        EvalStage::Point => 1,
    });
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
    if tokens.len() != 16 {
        return None;
    }
    let word = |token: &str| u64::from_str_radix(token, 16).ok();
    let key = EvalKey {
        stage: EvalStage::from_tag(tokens[0])?,
        structural: word(tokens[1])?,
        fingerprint: [word(tokens[2])?, word(tokens[3])?],
        tech: word(tokens[4])?,
        profiles: word(tokens[5])?,
        stimulus: word(tokens[6])?,
        flow: tokens[7].to_string(),
    };
    let value = StoredEval {
        delay: f64::from_bits(word(tokens[8])?),
        area: f64::from_bits(word(tokens[9])?),
        switching_energy: f64::from_bits(word(tokens[10])?),
        power_mw: f64::from_bits(word(tokens[11])?),
        cell_count: word(tokens[12])? as usize,
        logic_depth: word(tokens[13])? as usize,
        simulated_switch_power: f64::from_bits(word(tokens[14])?),
    };
    let checksum = word(tokens[15])?;
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

/// Reads a memo file; missing files and corrupt content never fail — only a true
/// I/O error (permissions, hardware, or an injected read fault) does.
fn read_file(path: &Path, faults: Option<&FaultPlan>) -> Result<LoadedFile, ExploreError> {
    if let Some(reason) = faults.and_then(FaultPlan::next_store_read_fault) {
        return Err(store_error(path, reason));
    }
    // Bytes, not text: a non-UTF-8 byte is damaged content like any other, and
    // must cost only its own line (see `parse_file`).
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LoadedFile::default())
        }
        Err(error) => return Err(store_error(path, error)),
    };
    Ok(parse_file(&bytes))
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

/// The sidecar file damaged lines of the memo file at `path` are quarantined to.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let file_name = path
        .file_name()
        .and_then(|name| name.to_str())
        .unwrap_or("store");
    path.with_file_name(format!("{file_name}.quarantine"))
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
/// file it loads from and flushes to. The `store` module docs give the key
/// semantics and the on-disk format.
#[derive(Debug, Clone)]
pub struct ResultStore {
    path: Option<PathBuf>,
    records: BTreeMap<EvalKey, StoredEval>,
    rebuilt: bool,
    damaged_lines: usize,
    torn_tail: bool,
    quarantined: usize,
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
            faults: None,
        }
    }

    /// An empty store that *keeps* `path` as its backing file without touching
    /// the filesystem. The server's degraded mode starts from this when the memo
    /// file cannot be loaded: sweeps compute through in memory, and every flush
    /// retries the real file — so the store recovers the moment the path does.
    pub fn empty_at(path: impl Into<PathBuf>, faults: Option<Arc<FaultPlan>>) -> Self {
        ResultStore {
            path: Some(path.into()),
            faults,
            ..ResultStore::in_memory()
        }
    }

    /// Loads (or initializes) the store at `path`. A missing file yields an empty
    /// store; a stale or foreign file is detected and rebuilt from empty
    /// ([`health`](Self::health) reports it); corrupt lines are skipped, counted
    /// and quarantined to the [`quarantine_path`] sidecar.
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
        let loaded = read_file(&path, faults.as_deref())?;
        let quarantined = if loaded.damaged.is_empty() {
            fs::read_to_string(quarantine_path(&path))
                .map(|text| text.lines().filter(|line| !line.trim().is_empty()).count())
                .unwrap_or(0)
        } else {
            quarantine_damaged(&path, &loaded.damaged)
        };
        Ok(ResultStore {
            path: Some(path),
            records: loaded.records,
            rebuilt: loaded.rebuilt,
            damaged_lines: loaded.damaged.len(),
            torn_tail: loaded.torn_tail,
            quarantined,
            faults,
        })
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
    /// deterministic merge rule.
    pub fn record(&mut self, key: EvalKey, value: StoredEval) {
        self.records
            .entry(key)
            .and_modify(|resident| *resident = merged(*resident, value))
            .or_insert(value);
    }

    /// Merges a batch of records (e.g. the fresh results of one exploration).
    pub fn merge(&mut self, records: impl IntoIterator<Item = (EvalKey, StoredEval)>) {
        for (key, value) in records {
            self.record(key, value);
        }
    }

    /// Writes the store to its memo file atomically (temp file + rename) after
    /// union-merging whatever is on disk, then verifies its own records survived —
    /// retrying when a concurrent flush won the rename race. Afterwards the file
    /// holds the deterministic union: records sorted by key, one canonical line
    /// each, so the final bytes are independent of flush order. A store without a
    /// path returns immediately.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::Store`] on true I/O failure, or when the
    /// merge-verify loop cannot converge within its bounded retries.
    pub fn flush(&mut self) -> Result<(), ExploreError> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        let faults = self.faults.clone();
        for _ in 0..FLUSH_ATTEMPTS {
            let on_disk = read_file(&path, faults.as_deref())?;
            self.merge(on_disk.records);
            self.write_atomic(&path)?;
            let reread = read_file(&path, faults.as_deref())?;
            let converged = self.records.iter().all(|(key, value)| {
                reread
                    .records
                    .get(key)
                    .is_some_and(|disk| merged(*disk, *value) == *disk)
            });
            if converged {
                return Ok(());
            }
        }
        Err(store_error(
            &path,
            "concurrent flushes kept overwriting each other; giving up after bounded retries",
        ))
    }

    fn write_atomic(&self, path: &Path) -> Result<(), ExploreError> {
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
        let temp = path.with_file_name(format!("{file_name}.tmp.{}", std::process::id()));
        let mut out = String::with_capacity(64 * (self.records.len() + 1));
        out.push_str(STORE_FORMAT);
        out.push('\n');
        for (key, value) in &self.records {
            out.push_str(&format_line(key, value));
            out.push('\n');
        }
        // An injected torn write truncates the payload and still renames it into
        // place (the tear lands in the real memo file — the data loss of a kill
        // right after the rename); a crash-before-rename writes the full temp
        // file and leaves it orphaned. Both then report the injected error, as a
        // killed process would leave its caller with a failed flush.
        let payload = match fault {
            Some(WriteFault::Torn { keep_bytes }) => &out.as_bytes()[..keep_bytes.min(out.len())],
            _ => out.as_bytes(),
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

    fn key(stage: EvalStage, salt: u64) -> EvalKey {
        EvalKey {
            stage,
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
        for stage in [EvalStage::Analysis, EvalStage::Point] {
            let key = key(stage, 0xdead_beef);
            let value = value(1.625);
            let line = format_line(&key, &value);
            let (parsed_key, parsed_value) = parse_line(&line).expect("line parses");
            assert_eq!(parsed_key, key);
            assert_eq!(parsed_value, value);
        }
    }

    #[test]
    fn corrupt_lines_fail_the_checksum() {
        let line = format_line(&key(EvalStage::Analysis, 5), &value(2.0));
        // Flip one hex digit of the delay field.
        let tampered = {
            let mut tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
            let delay = tokens[8].clone();
            tokens[8] = match delay.strip_prefix('0') {
                Some(rest) => format!("1{rest}"),
                None => format!("0{}", &delay[1..]),
            };
            tokens.join(" ")
        };
        assert!(parse_line(&tampered).is_none(), "bit flip must be rejected");
        assert!(parse_line("A nonsense").is_none());
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
    fn analysis_keys_are_name_blind_but_structure_exact() {
        use dpsyn_netlist::CellKind;
        let build = |flip: bool| {
            let mut netlist = Netlist::new("demo");
            let a = netlist.add_input("a");
            let b = netlist.add_input("b");
            let kind = if flip { CellKind::Or2 } else { CellKind::And2 };
            let out = netlist.add_gate(kind, &[a, b]).unwrap()[0];
            netlist.mark_output(out);
            netlist
        };
        let base = EvalKey::analysis(&build(false), 7, "conventional", 11, 0);
        let mut renamed = build(false);
        renamed.set_net_name(renamed.inputs()[0], "zz");
        assert_eq!(EvalKey::analysis(&renamed, 7, "conventional", 11, 0), base);
        assert_ne!(
            EvalKey::analysis(&build(true), 7, "conventional", 11, 0),
            base
        );
        assert_ne!(
            EvalKey::analysis(&build(false), 8, "conventional", 11, 0),
            base
        );
        assert_ne!(EvalKey::analysis(&build(false), 7, "csa_opt", 11, 0), base);
        assert_ne!(
            EvalKey::analysis(&build(false), 7, "conventional", 12, 0),
            base
        );
        assert_ne!(
            EvalKey::analysis(&build(false), 7, "conventional", 11, 3),
            base,
            "the stimulus digest is part of the analysis key"
        );
    }

    #[test]
    fn stimulus_digests_track_request_and_layout() {
        use crate::spec::SimActivity;
        use dpsyn_netlist::{Word, WordMap};
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

        // Layout digests separate word maps that bind the same stimulus bits to
        // different nets, and never collide with the bare request digest.
        let mut netlist = Netlist::new("demo");
        let a = netlist.add_input("a");
        let b = netlist.add_input("b");
        let straight = WordMap::new(
            vec![Word::new("a", vec![a]), Word::new("b", vec![b])],
            Word::new("out", vec![a]),
        );
        let crossed = WordMap::new(
            vec![Word::new("a", vec![b]), Word::new("b", vec![a])],
            Word::new("out", vec![a]),
        );
        let straight_digest = stimulus_layout_digest(base, &straight);
        assert_eq!(straight_digest, stimulus_layout_digest(base, &straight));
        assert_ne!(straight_digest, stimulus_layout_digest(base, &crossed));
        assert_ne!(straight_digest, base);
    }

    #[test]
    fn profile_digest_is_exact_in_values_and_nets() {
        let mut arrivals = BTreeMap::new();
        let mut probabilities = BTreeMap::new();
        let netlist = {
            let mut netlist = Netlist::new("demo");
            netlist.add_input("a");
            netlist.add_input("b");
            netlist
        };
        let (a, b) = (netlist.inputs()[0], netlist.inputs()[1]);
        arrivals.insert(a, 1.0);
        probabilities.insert(a, 0.5);
        let base = profile_digest(&arrivals, &probabilities);
        assert_eq!(base, profile_digest(&arrivals, &probabilities));
        let mut shifted = arrivals.clone();
        shifted.insert(a, 1.0 + f64::EPSILON);
        assert_ne!(profile_digest(&shifted, &probabilities), base);
        let mut moved = arrivals.clone();
        moved.remove(&a);
        moved.insert(b, 1.0);
        assert_ne!(profile_digest(&moved, &probabilities), base);
    }

    #[test]
    fn in_memory_store_flush_is_a_noop() {
        let mut store = ResultStore::in_memory();
        store.record(key(EvalStage::Point, 1), value(1.0));
        assert_eq!(store.len(), 1);
        assert!(store.lookup(&key(EvalStage::Point, 1)).is_some());
        assert!(store.lookup(&key(EvalStage::Analysis, 1)).is_none());
        store.flush().expect("no backing file, nothing to do");
    }

    /// A record built from arbitrary words: any f64 bit pattern (NaN payloads
    /// included), any counts, and a flow token of printable garbage.
    fn record(words: &[u64], flow: u64) -> (EvalKey, StoredEval) {
        let flow = crate::faults::deterministic_garbage(flow, 1 + (flow % 24) as usize);
        let key = EvalKey {
            stage: if words[0] & 1 == 0 {
                EvalStage::Analysis
            } else {
                EvalStage::Point
            },
            structural: words[1],
            fingerprint: [words[2], words[3]],
            tech: words[4],
            flow: String::from_utf8(flow).expect("garbage is printable ASCII"),
            profiles: words[5],
            stimulus: words[6],
        };
        let value = StoredEval {
            delay: f64::from_bits(words[7]),
            area: f64::from_bits(words[8]),
            switching_energy: f64::from_bits(words[9]),
            power_mw: f64::from_bits(words[10]),
            cell_count: words[11] as usize,
            logic_depth: words[12] as usize,
            simulated_switch_power: f64::from_bits(words[13]),
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
            words in prop::collection::vec(float_word(), 14),
            flow in any::<u64>(),
        ) {
            let (key, value) = record(&words, flow);
            let line = format_line(&key, &value);
            let (parsed_key, parsed_value) = parse_line(&line).expect("a formatted line parses");
            prop_assert_eq!(&parsed_key, &key);
            prop_assert_eq!(parsed_value.bits(), value.bits());
            prop_assert_eq!(format_line(&parsed_key, &parsed_value), line);
        }

        /// Any body after a valid header loads: every non-blank line is either a
        /// record or a damaged line, and only a damaged unterminated last line is a
        /// torn tail.
        #[test]
        fn any_memo_body_loads_and_accounts_for_every_line(
            lines in prop::collection::vec(
                (
                    0u8..5,
                    prop::collection::vec(float_word(), 14),
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
                words[1] = index as u64;
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
