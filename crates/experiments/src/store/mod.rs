//! The persistent run store: an append-only, single-file record of every
//! `jetty-repro --store` invocation, giving the reproduction a durable,
//! comparable history instead of one-shot stdout.
//!
//! # Why this exists
//!
//! JETTY's claims are comparative — coverage and energy deltas across
//! configurations — and regressions in either the *output* (a silent
//! behaviour change in the simulator) or the *speed* of the reproduction
//! were previously caught only by eyeballing stdout against memory. (Speed
//! itself is measured by the reproduction benchmark,
//! `python3 perfbench/run.py`.) The store records each invocation's
//! typed [`ResultSet`] together with when, at what git revision, under
//! which [`RunOptions`](crate::RunOptions) id, and how long the
//! simulations took, so `jetty-repro diff` (see [`diff`]) can compare any
//! two runs cell-by-cell and CI can gate on drift.
//!
//! # File format
//!
//! A store is a single file, written only by appending (no record is ever
//! rewritten in place). It opens with a versioned header line:
//!
//! ```text
//! JETTYSTORE 1\n
//! ```
//!
//! followed by zero or more length-prefixed, checksummed frames:
//!
//! ```text
//! JREC <len:8 hex> <fnv64:16 hex>\n
//! <payload: `len` bytes of compact JSON>\n
//! ```
//!
//! The payload reuses the hand-rolled JSON writer/parser from the results
//! pipeline ([`super::results::json`]) — no new dependencies — and holds
//! one [`RunRecord`]: the metadata fields plus the full table tree, every
//! cell in its typed [`Cell`] encoding, so a parsed record reconstructs
//! the exact `ResultSet` the run produced.
//!
//! # Crash-recovery contract
//!
//! Appends happen as one `write_all` of the whole frame followed by a data
//! sync, so the only way a record can be damaged is at the **tail**: a
//! truncated or torn final frame (crash mid-append) or bytes corrupted
//! after the fact. [`RunStore::scan`] validates each frame in order —
//! magic, length, terminator, checksum, JSON shape, sequence number — and
//! on the first failure stops and *reports* the damage (offset + reason)
//! in [`ScanOutcome::damage`] instead of panicking or guessing: every
//! record before the damage is returned intact, and no intact record is
//! ever silently altered. The next [`RunStore::append`] discards the
//! damaged tail bytes (truncating back to the last intact frame boundary —
//! the standard log-recovery move) before writing, and reports that it did
//! so. The failure-injection suite (`tests/store_failure.rs`) exercises
//! truncation mid-record, bit flips in the tail frame, and torn appends
//! against exactly this contract.

pub mod diff;

use std::fs::{self, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::error::JettyError;
use crate::fault;
use crate::results::json::{self, Json};
use crate::results::{Cell, ResultSet, TableData};

/// Version of the store file layout (the `JETTYSTORE <n>` header).
pub const STORE_FORMAT_VERSION: u64 = 1;

/// Version of the record payload schema (the `"schema"` field).
pub const RECORD_SCHEMA_VERSION: u64 = 1;

/// The store header line.
const HEADER: &[u8] = b"JETTYSTORE 1\n";

/// Write attempts per [`RunStore::append`] (first try + retries). The
/// write is idempotent — every attempt starts by truncating back to the
/// intact prefix — so retrying a transient I/O failure is always safe.
const APPEND_ATTEMPTS: u32 = 3;

/// Backoff before the first retry (doubled per further retry).
const APPEND_BACKOFF: Duration = Duration::from_millis(10);

/// Frame magic (followed by one space).
const FRAME_MAGIC: &[u8] = b"JREC ";

/// Frame header length: `JREC ` + 8 hex + space + 16 hex + newline.
const FRAME_HEADER_LEN: usize = 5 + 8 + 1 + 16 + 1;

/// FNV-1a 64 over a byte slice — the frame checksum. Not cryptographic;
/// it detects the accidental corruption (bit rot, torn writes) the
/// crash-recovery contract is about.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The identity and timing metadata of one recorded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// 1-based position in the store (assigned by [`RunStore::append`];
    /// the id `jetty-repro runs` lists and `diff` refs name).
    pub seq: u64,
    /// Record schema version the payload was written with.
    pub schema: u64,
    /// Seconds since the Unix epoch at record time.
    pub unix_time: u64,
    /// Git revision of the working tree (short hash, or `unknown`).
    pub git_rev: String,
    /// The subcommands of the recorded invocation, space-joined.
    pub command: String,
    /// The invocation's base [`RunOptions::id`](crate::RunOptions::id).
    pub options: String,
    /// Wall-clock of the invocation's suite simulations, in milliseconds
    /// (0 when nothing simulated). The quantity `diff --timing-band`
    /// gates on.
    pub timing_ms: u64,
}

impl RunMeta {
    /// Compact `#seq@git` label for summaries and logs.
    pub fn label(&self) -> String {
        format!("#{}@{}", self.seq, self.git_rev)
    }
}

/// What [`RunStore::append`] records: everything of [`RunMeta`] except the
/// store-assigned sequence number and schema version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunInfo {
    /// Seconds since the Unix epoch (see [`unix_time_now`]).
    pub unix_time: u64,
    /// Git revision (see [`git_rev`]).
    pub git_rev: String,
    /// Space-joined subcommands of the invocation.
    pub command: String,
    /// The invocation's base [`RunOptions::id`](crate::RunOptions::id).
    pub options: String,
    /// Suite-simulation wall-clock in milliseconds.
    pub timing_ms: u64,
}

/// One recorded run: metadata plus the full typed result tree.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Identity and timing.
    pub meta: RunMeta,
    /// The tables the run produced, cell-for-cell.
    pub results: ResultSet,
}

impl RunRecord {
    /// Total number of data cells across all tables.
    pub fn cell_count(&self) -> u64 {
        self.results.tables.iter().flat_map(|t| &t.rows).map(|r| r.len() as u64).sum()
    }
}

/// A damaged (unreadable) tail reported by [`RunStore::scan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TailDamage {
    /// Byte offset of the first frame that failed validation.
    pub offset: u64,
    /// Human-readable reason (truncation, checksum mismatch, ...).
    pub reason: String,
}

/// Everything a full scan of a store file yields.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScanOutcome {
    /// Every intact record, in append order.
    pub records: Vec<RunRecord>,
    /// The damage that ended the scan early, if any.
    pub damage: Option<TailDamage>,
    /// Byte length of the intact prefix (header + intact frames) — where
    /// the next append will write.
    pub intact_len: u64,
}

/// Outcome of one append.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Sequence number assigned to the new record.
    pub seq: u64,
    /// The damaged tail that was discarded (truncated away) to make room,
    /// if the file had one.
    pub recovered: Option<TailDamage>,
}

/// A reference to one run inside a store: a sequence number or the most
/// recent record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunRef {
    /// The highest-numbered intact record.
    Latest,
    /// An explicit 1-based sequence number.
    Seq(u64),
}

impl RunRef {
    /// Parses `latest` or a positive integer.
    pub fn parse(s: &str) -> Option<RunRef> {
        if s.eq_ignore_ascii_case("latest") {
            return Some(RunRef::Latest);
        }
        s.parse::<u64>().ok().filter(|&n| n >= 1).map(RunRef::Seq)
    }
}

/// An append-only run store bound to one file path. Construction does no
/// I/O; a missing file reads as an empty store and is created on first
/// append.
#[derive(Clone, Debug)]
pub struct RunStore {
    path: PathBuf,
}

impl RunStore {
    /// Binds a store to a path (no I/O).
    pub fn open(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The file path this store reads and appends.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A [`JettyError::Store`] bound to this store's path.
    fn err(&self, message: impl Into<String>) -> JettyError {
        JettyError::store(self.path.display().to_string(), message)
    }

    /// Reads and validates the whole file. Damage never panics and never
    /// hides intact records: everything before the first bad frame is
    /// returned, with the damage described in [`ScanOutcome::damage`].
    /// A missing file is an empty store. Returns `Err` only for I/O
    /// failures and files that are not run stores at all (wrong or
    /// unsupported header).
    pub fn scan(&self) -> Result<ScanOutcome, JettyError> {
        let bytes = match fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ScanOutcome::default()),
            Err(e) => return Err(self.err(format!("cannot read the store: {e}"))),
        };
        scan_bytes(&bytes).map_err(|reason| self.err(reason))
    }

    /// Appends one record, assigning it the next sequence number, and
    /// syncs the file. If the file ends in a damaged tail (crash debris),
    /// the damaged bytes are discarded first — intact records are never
    /// touched — and the recovery is reported in the outcome.
    ///
    /// Transient write failures are retried up to `APPEND_ATTEMPTS`
    /// times with doubling backoff; every attempt re-truncates to the
    /// intact prefix first, so a torn partial write from a failed attempt
    /// can never survive into the file. Exhausting the retries yields one
    /// clean [`JettyError::Store`] — the store itself stays intact.
    pub fn append(&self, info: &RunInfo, results: &ResultSet) -> Result<AppendOutcome, JettyError> {
        let scan = self.scan()?;
        let seq = scan.records.len() as u64 + 1;
        let record = RunRecord {
            meta: RunMeta {
                seq,
                schema: RECORD_SCHEMA_VERSION,
                unix_time: info.unix_time,
                git_rev: info.git_rev.clone(),
                command: info.command.clone(),
                options: info.options.clone(),
                timing_ms: info.timing_ms,
            },
            results: results.clone(),
        };
        let payload = record_to_json(&record);
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + 1);
        frame.extend_from_slice(FRAME_MAGIC);
        frame.extend_from_slice(format!("{:08x}", payload.len()).as_bytes());
        frame.push(b' ');
        frame.extend_from_slice(format!("{:016x}", fnv64(payload.as_bytes())).as_bytes());
        frame.push(b'\n');
        frame.extend_from_slice(payload.as_bytes());
        frame.push(b'\n');

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.path)
            .map_err(|e| self.err(format!("cannot open the store: {e}")))?;
        let write = |file: &mut fs::File| -> std::io::Result<()> {
            // Discard crash debris past the intact prefix, then append the
            // header (first record only) and the new frame as one write.
            file.set_len(scan.intact_len)?;
            file.seek(SeekFrom::End(0))?;
            if scan.intact_len == 0 {
                file.write_all(HEADER)?;
            }
            file.write_all(&frame)?;
            file.sync_data()
        };
        let mut backoff = APPEND_BACKOFF;
        let mut last_error = String::new();
        for attempt in 1..=APPEND_ATTEMPTS {
            // The injection point sits where a real device error would
            // surface: instead of the write, not around it, so an injected
            // failure leaves the file exactly as a refused write would.
            let result = if fault::active().store_write_error(seq) {
                Err(std::io::Error::other("injected fault: store-write-err"))
            } else {
                write(&mut file)
            };
            match result {
                Ok(()) => return Ok(AppendOutcome { seq, recovered: scan.damage }),
                Err(e) => {
                    last_error = e.to_string();
                    if attempt < APPEND_ATTEMPTS {
                        eprintln!(
                            "[store] append of record #{seq} failed (attempt \
                             {attempt}/{APPEND_ATTEMPTS}: {e}); retrying in {} ms",
                            backoff.as_millis()
                        );
                        std::thread::sleep(backoff);
                        backoff *= 2;
                    }
                }
            }
        }
        Err(self.err(format!(
            "append of record #{seq} failed after {APPEND_ATTEMPTS} attempts: {last_error} \
             (intact records are untouched)"
        )))
    }

    /// Resolves a [`RunRef`] against a scan's record list.
    pub fn resolve<'a>(
        &self,
        scan: &'a ScanOutcome,
        rf: RunRef,
    ) -> Result<&'a RunRecord, JettyError> {
        let found = match rf {
            RunRef::Latest => scan.records.last(),
            RunRef::Seq(n) => scan.records.iter().find(|r| r.meta.seq == n),
        };
        found.ok_or_else(|| {
            let want = match rf {
                RunRef::Latest => "latest".to_owned(),
                RunRef::Seq(n) => n.to_string(),
            };
            self.err(format!("run {want} not found ({} intact runs)", scan.records.len()))
        })
    }
}

/// Validates header + frames of a whole store image (pure; the unit the
/// failure-injection tests drive directly). `Err` is reserved for files
/// that are not run stores at all — appending would destroy them, so they
/// are never treated as recoverable damage.
fn scan_bytes(bytes: &[u8]) -> Result<ScanOutcome, String> {
    if bytes.is_empty() {
        return Ok(ScanOutcome::default());
    }
    if !bytes.starts_with(HEADER) {
        if HEADER.starts_with(bytes) {
            // A crash during store creation left a partial header: nothing
            // was recorded yet, so nothing is lost — report and carry on.
            return Ok(ScanOutcome {
                records: Vec::new(),
                damage: Some(TailDamage { offset: 0, reason: "truncated store header".to_owned() }),
                intact_len: 0,
            });
        }
        return Err(format!(
            "not a jetty run store (missing `JETTYSTORE {STORE_FORMAT_VERSION}` header, \
             or unsupported store version)"
        ));
    }

    let mut records = Vec::new();
    let mut pos = HEADER.len();
    let damage = loop {
        if pos == bytes.len() {
            break None;
        }
        match parse_frame(&bytes[pos..], records.len() as u64 + 1) {
            Ok((record, frame_len)) => {
                records.push(record);
                pos += frame_len;
            }
            Err(reason) => break Some(TailDamage { offset: pos as u64, reason }),
        }
    };
    Ok(ScanOutcome { records, damage, intact_len: pos as u64 })
}

/// Parses one frame at the start of `bytes`, expecting sequence number
/// `want_seq`. Returns the record and the frame's total byte length.
fn parse_frame(bytes: &[u8], want_seq: u64) -> Result<(RunRecord, usize), String> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err("truncated frame header (torn append)".to_owned());
    }
    let header = &bytes[..FRAME_HEADER_LEN];
    if !header.starts_with(FRAME_MAGIC) {
        return Err("corrupt frame header (bad magic)".to_owned());
    }
    let hex_u64 = |slice: &[u8], what: &str| -> Result<u64, String> {
        std::str::from_utf8(slice)
            .ok()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| format!("corrupt frame header (bad {what})"))
    };
    let len = hex_u64(&header[5..13], "length")? as usize;
    if header[13] != b' ' || header[FRAME_HEADER_LEN - 1] != b'\n' {
        return Err("corrupt frame header (bad separators)".to_owned());
    }
    let checksum = hex_u64(&header[14..30], "checksum")?;
    let payload_start = FRAME_HEADER_LEN;
    // The frame needs `len` payload bytes plus the trailing newline.
    let Some(payload_end) = payload_start.checked_add(len).filter(|&e| e < bytes.len()) else {
        return Err(format!(
            "truncated payload (frame claims {len} bytes, {} remain — torn append)",
            bytes.len() - payload_start
        ));
    };
    let payload = &bytes[payload_start..payload_end];
    if bytes[payload_end] != b'\n' {
        return Err("missing record terminator".to_owned());
    }
    if fnv64(payload) != checksum {
        return Err("checksum mismatch (corrupted record)".to_owned());
    }
    let text = std::str::from_utf8(payload).map_err(|_| "record is not UTF-8".to_owned())?;
    let parsed = Json::parse(text).map_err(|e| format!("unparseable record JSON: {e}"))?;
    let record = record_from_json(&parsed)?;
    if record.meta.seq != want_seq {
        return Err(format!(
            "sequence mismatch (record claims #{}, position implies #{want_seq})",
            record.meta.seq
        ));
    }
    Ok((record, payload_end + 1))
}

/// Serializes a record as one compact JSON document (the frame payload).
/// Exact inverse of [`record_from_json`].
fn record_to_json(record: &RunRecord) -> String {
    use std::fmt::Write as _;
    let m = &record.meta;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        r#"{{"schema":{},"seq":{},"unix_time":{},"git_rev":{},"command":{},"options":{},"timing_ms":{},"tables":["#,
        m.schema,
        m.seq,
        m.unix_time,
        json::quote(&m.git_rev),
        json::quote(&m.command),
        json::quote(&m.options),
        m.timing_ms
    );
    for (i, table) in record.results.tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_table(&mut out, table);
    }
    out.push_str("]}");
    out
}

/// Appends one table's compact JSON object.
fn write_table(out: &mut String, table: &TableData) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        r#"{{"id":{},"title":{},"columns":["#,
        json::quote(&table.id),
        json::quote(&table.title)
    );
    for (i, column) in table.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::quote(column));
    }
    out.push_str(r#"],"rows":["#);
    for (i, row) in table.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            cell.write_json(out);
        }
        out.push(']');
    }
    out.push_str("]}");
}

/// Rebuilds a record from its parsed payload JSON.
fn record_from_json(value: &Json) -> Result<RunRecord, String> {
    let u = |key: &str| {
        value.get(key).and_then(Json::as_u64).ok_or_else(|| format!("record lacks {key:?}"))
    };
    let s = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("record lacks {key:?}"))
    };
    let schema = u("schema")?;
    if schema > RECORD_SCHEMA_VERSION {
        return Err(format!(
            "record schema {schema} is newer than this binary supports ({RECORD_SCHEMA_VERSION})"
        ));
    }
    let meta = RunMeta {
        seq: u("seq")?,
        schema,
        unix_time: u("unix_time")?,
        git_rev: s("git_rev")?,
        command: s("command")?,
        options: s("options")?,
        timing_ms: u("timing_ms")?,
    };
    let tables = value
        .get("tables")
        .and_then(Json::as_array)
        .ok_or_else(|| "record lacks \"tables\"".to_owned())?;
    let mut results = ResultSet::new();
    for table in tables {
        results.push(table_from_json(table)?);
    }
    Ok(RunRecord { meta, results })
}

/// Rebuilds one table from its compact JSON object.
fn table_from_json(value: &Json) -> Result<TableData, String> {
    let text = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("table lacks {key:?}"))
    };
    let mut table = TableData::new(text("id")?, text("title")?);
    let columns = value
        .get("columns")
        .and_then(Json::as_array)
        .ok_or_else(|| "table lacks \"columns\"".to_owned())?;
    table.columns = columns
        .iter()
        .map(|c| c.as_str().map(str::to_owned).ok_or_else(|| "non-string column".to_owned()))
        .collect::<Result<_, _>>()?;
    let rows = value
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| "table lacks \"rows\"".to_owned())?;
    for row in rows {
        let cells = row.as_array().ok_or_else(|| "non-array row".to_owned())?;
        let mut parsed = Vec::with_capacity(cells.len());
        for cell in cells {
            parsed.push(
                Cell::from_json(cell).ok_or_else(|| "unrecognised cell encoding".to_owned())?,
            );
        }
        // Bypass `TableData::row`'s width assertion: a record from a
        // different version is data to report on, not a harness invariant
        // to die over.
        table.rows.push(parsed);
    }
    Ok(table)
}

/// Seconds since the Unix epoch. The `JETTY_STORE_NOW` environment
/// variable overrides the clock (determinism for golden tests and the
/// committed CI reference record).
pub fn unix_time_now() -> u64 {
    if let Some(pinned) =
        std::env::var("JETTY_STORE_NOW").ok().and_then(|v| v.trim().parse::<u64>().ok())
    {
        return pinned;
    }
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The working tree's git revision (short hash). The `JETTY_GIT_REV`
/// environment variable overrides it (determinism for tests); `unknown`
/// when git is unavailable.
pub fn git_rev() -> String {
    if let Ok(pinned) = std::env::var("JETTY_GIT_REV") {
        let pinned = pinned.trim().to_owned();
        if !pinned.is_empty() {
            return pinned;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("jetty_store_mod_{}_{name}", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    fn sample_set(tag: &str) -> ResultSet {
        let mut t = TableData::new("t1", format!("demo table {tag}"));
        t.headers(["app", "coverage", "label"]);
        t.row([Cell::label("ba"), Cell::Ratio(0.471), Cell::text_cell("a, \"b\"")]);
        t.row([Cell::label("fft"), Cell::Ratio(0.03), Cell::text_cell("4 x 32x32")]);
        let mut set = ResultSet::new();
        set.push(t);
        set
    }

    fn info(tag: &str) -> RunInfo {
        RunInfo {
            unix_time: 1_700_000_000,
            git_rev: "abc123".into(),
            command: "all".into(),
            options: format!("cpus4-scale0.02-{tag}"),
            timing_ms: 1234,
        }
    }

    #[test]
    fn missing_file_is_an_empty_store() {
        let store = RunStore::open(tmp("missing"));
        let scan = store.scan().unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.damage.is_none());
        assert_eq!(scan.intact_len, 0);
    }

    #[test]
    fn append_then_scan_round_trips_records_in_order() {
        let path = tmp("roundtrip");
        let store = RunStore::open(&path);
        let a = store.append(&info("a"), &sample_set("a")).unwrap();
        let b = store.append(&info("b"), &sample_set("b")).unwrap();
        assert_eq!((a.seq, b.seq), (1, 2));
        assert!(a.recovered.is_none() && b.recovered.is_none());

        let scan = store.scan().unwrap();
        assert!(scan.damage.is_none());
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].meta.seq, 1);
        assert_eq!(scan.records[0].meta.options, "cpus4-scale0.02-a");
        assert_eq!(scan.records[1].results, sample_set("b"));
        assert_eq!(scan.records[0].cell_count(), 6);
        assert_eq!(scan.intact_len, fs::metadata(&path).unwrap().len());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn store_file_is_headed_and_line_framed() {
        let path = tmp("framing");
        let store = RunStore::open(&path);
        store.append(&info("a"), &sample_set("a")).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"JETTYSTORE 1\nJREC "));
        assert_eq!(*bytes.last().unwrap(), b'\n');
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resolve_finds_latest_and_seq_and_reports_unknowns() {
        let path = tmp("resolve");
        let store = RunStore::open(&path);
        store.append(&info("a"), &sample_set("a")).unwrap();
        store.append(&info("b"), &sample_set("b")).unwrap();
        let scan = store.scan().unwrap();
        assert_eq!(store.resolve(&scan, RunRef::Latest).unwrap().meta.seq, 2);
        assert_eq!(store.resolve(&scan, RunRef::Seq(1)).unwrap().meta.seq, 1);
        let err = store.resolve(&scan, RunRef::Seq(9)).unwrap_err();
        assert_eq!(err.kind(), "store");
        let text = err.to_string();
        assert!(text.contains("run 9 not found"), "{text}");
        assert!(text.contains("2 intact runs"), "{text}");
        assert!(text.contains(&path.display().to_string()), "{text}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn run_ref_parsing() {
        assert_eq!(RunRef::parse("latest"), Some(RunRef::Latest));
        assert_eq!(RunRef::parse("LATEST"), Some(RunRef::Latest));
        assert_eq!(RunRef::parse("3"), Some(RunRef::Seq(3)));
        assert_eq!(RunRef::parse("0"), None);
        assert_eq!(RunRef::parse("-1"), None);
        assert_eq!(RunRef::parse("first"), None);
    }

    #[test]
    fn foreign_files_are_refused_without_panicking() {
        let path = tmp("foreign");
        fs::write(&path, b"{\"schema\": 5}\n").unwrap();
        let store = RunStore::open(&path);
        let err = store.scan().unwrap_err();
        assert_eq!(err.kind(), "store");
        assert!(err.to_string().contains("not a jetty run store"), "{err}");
        // And appending must refuse too — never destroy a foreign file.
        let append_err = store.append(&info("x"), &sample_set("x")).unwrap_err();
        assert!(append_err.to_string().contains("not a jetty run store"), "{append_err}");
        assert_eq!(fs::read(&path).unwrap(), b"{\"schema\": 5}\n", "foreign file untouched");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn future_record_schema_is_damage_not_panic() {
        let record = RunRecord {
            meta: RunMeta {
                seq: 1,
                schema: RECORD_SCHEMA_VERSION,
                unix_time: 0,
                git_rev: "g".into(),
                command: "all".into(),
                options: "o".into(),
                timing_ms: 0,
            },
            results: sample_set("x"),
        };
        let payload = record_to_json(&record).replace("\"schema\":1", "\"schema\":99");
        let mut file = HEADER.to_vec();
        file.extend_from_slice(FRAME_MAGIC);
        file.extend_from_slice(format!("{:08x}", payload.len()).as_bytes());
        file.push(b' ');
        file.extend_from_slice(format!("{:016x}", fnv64(payload.as_bytes())).as_bytes());
        file.push(b'\n');
        file.extend_from_slice(payload.as_bytes());
        file.push(b'\n');
        let scan = scan_bytes(&file).unwrap();
        assert!(scan.records.is_empty());
        let damage = scan.damage.expect("future schema must be reported");
        assert!(damage.reason.contains("newer than this binary"), "{}", damage.reason);
    }

    #[test]
    fn record_json_round_trips_metadata_with_hostile_strings() {
        let record = RunRecord {
            meta: RunMeta {
                seq: 7,
                schema: RECORD_SCHEMA_VERSION,
                unix_time: 42,
                git_rev: "déad,\"beef\"\n".into(),
                command: "all sweep".into(),
                options: "cpus4,\"x\"+😀".into(),
                timing_ms: u64::from(u32::MAX) + 3,
            },
            results: sample_set("hostile"),
        };
        let payload = record_to_json(&record);
        let parsed = Json::parse(&payload).expect("record payload must be valid JSON");
        assert_eq!(record_from_json(&parsed).unwrap(), record);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
