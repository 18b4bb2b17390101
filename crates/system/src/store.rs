//! Persistent content-keyed result store: an on-disk JSONL log, and the
//! loader that fills the engine's digest-keyed memo from it.
//!
//! A long characterization campaign — the paper's stressmark methodology
//! is thousands of transient solves — must survive being killed at hour
//! N. The store makes solved jobs durable facts:
//!
//! - **Format** — line 1 is a versioned header, every further line one
//!   `{"key": "<digest>", "outcome": {...}}` record. The key is a stable
//!   128-bit FNV-1a digest of the full [`crate::engine::JobKey`]
//!   *including the chip signature*, so results from differently
//!   configured chips can share one store without ever colliding.
//! - **Append-on-solve** — each successful solve appends one flushed
//!   line, so a `kill -9` loses at most the line being written.
//! - **Log plus loader** — [`ResultStore::open_with`] streams the file
//!   line by line and hands each outcome to the caller once; the store
//!   keeps only where each key's record lies, and reads a record back
//!   from the log when asked for it.
//! - **Corrupt-line tolerance** — a torn or garbled line (the usual
//!   crash artifact) is skipped and counted, never aborts a load; the
//!   entries around it stay usable.
//! - **Atomic compaction** — [`ResultStore::compact`] rewrites the file
//!   (deduplicated, corrupt lines dropped, deterministic key order) via
//!   a temp file + rename, so a crash mid-compaction leaves the old
//!   file intact.
//!
//! A store whose header does not match the current format/version is
//! *reset* on open: the store is a cache of recomputable results, so
//! discarding unreadable generations is always safe.

use crate::noise::NoiseOutcome;
use serde::{Deserialize, Serialize, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Magic format name in the header line.
pub const STORE_FORMAT: &str = "voltnoise-store";
/// Current store format version. Bumped whenever the record layout or
/// the key scheme changes incompatibly. `2` writes a traced outcome as
/// one multi-channel capture, its timebase once, where `1` repeated the
/// timebase in a trace per site.
pub const STORE_VERSION: u32 = 2;
/// Identifier of the key scheme: FNV-1a 128 over the canonical byte
/// rendering of a `JobKey` (scenario signature included). `/2` added the
/// solve-spec fields (backend selection plus the optional reduced-order
/// budget) to the rendering. `/3` made the load list variable-length
/// (rack jobs carry one load per site, not a fixed six) and prefixed it
/// with its count to keep the rendering injective.
const KEY_SCHEME: &str = "jobkey-fnv1a128/3";

/// Stable 128-bit FNV-1a hasher. The standard library's `DefaultHasher`
/// is explicitly not stable across Rust releases, so store keys — which
/// must stay valid across processes, machines and toolchains — use this
/// fixed, documented function instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

    pub(crate) fn new() -> Fnv128 {
        Fnv128 {
            state: Fnv128::OFFSET,
        }
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(Fnv128::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u128 {
        self.state
    }

    pub(crate) fn finish_hex(&self) -> String {
        format!("{:032x}", self.finish())
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct StoreHeader {
    format: String,
    version: u32,
    key_scheme: String,
}

impl StoreHeader {
    fn current() -> StoreHeader {
        StoreHeader {
            format: STORE_FORMAT.to_string(),
            version: STORE_VERSION,
            key_scheme: KEY_SCHEME.to_string(),
        }
    }
}

#[derive(Deserialize)]
struct StoreRecord {
    key: String,
    outcome: NoiseOutcome,
}

/// A record to write, borrowing its outcome so an append never copies
/// it. Serializes to the exact bytes a derived `Serialize` of
/// `{key, outcome}` prints.
struct RecordRef<'a> {
    key: &'a str,
    outcome: &'a NoiseOutcome,
}

impl Serialize for RecordRef<'_> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("key".to_string(), Value::Str(self.key.to_string())),
            ("outcome".to_string(), self.outcome.to_value()),
        ])
    }
}

/// Renders one record line (without its newline).
fn record_line(key: &str, outcome: &NoiseOutcome) -> std::io::Result<String> {
    serde_json::to_string(&RecordRef { key, outcome }).map_err(std::io::Error::other)
}

/// Where one record's text lies in the backing file.
#[derive(Debug, Clone, Copy)]
struct Span {
    offset: u64,
    len: usize,
}

#[derive(Debug)]
struct StoreInner {
    /// Where each key's first record lies. Outcomes are not held here:
    /// the loader hands them to the opener once, and the engine's memo
    /// keeps them.
    index: HashMap<String, Span>,
    corrupt_lines: usize,
    /// Set once when an append fails, so a full disk warns once instead
    /// of spamming stderr for every remaining solve.
    append_warned: bool,
}

/// What one scan of record lines found.
struct Scan {
    /// Bytes of complete (newline-terminated) lines read.
    consumed: u64,
    corrupt: usize,
    /// A final line without its newline — a crash artifact — left for
    /// the caller to judge.
    tail: Vec<u8>,
}

/// Indexes one parsed record whose text lies at `span`; the first record
/// of a key wins, and only its outcome goes to `load`.
fn adopt(
    index: &mut HashMap<String, Span>,
    rec: StoreRecord,
    span: Span,
    load: &mut dyn FnMut(&str, NoiseOutcome),
) {
    if let Entry::Vacant(slot) = index.entry(rec.key) {
        load(slot.key(), rec.outcome);
        slot.insert(span);
    }
}

/// Reads record lines one at a time, starting at file offset `base`.
/// Blank lines are skipped, a trailing `\r` is ignored, and unreadable
/// lines are counted as corrupt.
fn scan_records(
    reader: &mut impl BufRead,
    base: u64,
    index: &mut HashMap<String, Span>,
    load: &mut dyn FnMut(&str, NoiseOutcome),
) -> std::io::Result<Scan> {
    let mut scan = Scan {
        consumed: 0,
        corrupt: 0,
        tail: Vec::new(),
    };
    let mut line = Vec::new();
    loop {
        line.clear();
        let n = reader.read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(scan);
        }
        if line.last() != Some(&b'\n') {
            scan.tail = line;
            return Ok(scan);
        }
        let offset = base + scan.consumed;
        scan.consumed += n as u64;
        let Ok(text) = std::str::from_utf8(&line[..n - 1]) else {
            scan.corrupt += 1;
            continue;
        };
        let text = text.trim_end_matches('\r');
        if text.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<StoreRecord>(text) {
            Ok(rec) => {
                let span = Span {
                    offset,
                    len: text.len(),
                };
                adopt(index, rec, span, load);
            }
            Err(_) => scan.corrupt += 1,
        }
    }
}

/// The on-disk JSONL store: an append log plus an index of where each
/// key's record lies. Thread-safe: the engine's workers append
/// concurrently through one mutex.
pub struct ResultStore {
    path: PathBuf,
    inner: Mutex<StoreInner>,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("ResultStore")
            .field("path", &self.path)
            .field("entries", &inner.index.len())
            .field("corrupt_lines", &inner.corrupt_lines)
            .finish()
    }
}

impl ResultStore {
    /// Opens (or creates) a store at `path`, streaming every readable
    /// record in line by line. Corrupt lines are skipped and counted; a
    /// missing, empty, or version-mismatched file starts the store fresh
    /// (the mismatched file is atomically rewritten with the current
    /// header).
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file exists but cannot be read, or
    /// when a fresh store file cannot be created.
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<ResultStore> {
        ResultStore::open_with(path, |_, _| {})
    }

    /// Like [`ResultStore::open`], and hands the outcome of each distinct
    /// key to `load` as it is read — how an engine fills its memo from
    /// the log in the same pass. The store itself keeps only where each
    /// record lies.
    ///
    /// # Errors
    ///
    /// As for [`ResultStore::open`].
    pub fn open_with<P: AsRef<Path>>(
        path: P,
        mut load: impl FnMut(&str, NoiseOutcome),
    ) -> std::io::Result<ResultStore> {
        let path = path.as_ref().to_path_buf();
        let mut index: HashMap<String, Span> = HashMap::new();
        let mut corrupt_lines = 0usize;
        let mut header_ok = false;
        match File::open(&path) {
            Ok(file) => {
                let mut reader = BufReader::new(file);
                let mut header = Vec::new();
                let n = reader.read_until(b'\n', &mut header)?;
                if n == 0 {
                    header_ok = true; // empty file: adopt it
                } else if header.last() == Some(&b'\n')
                    // A non-UTF-8 first line is as alien as a wrong
                    // header: reset below.
                    && std::str::from_utf8(&header[..n - 1])
                        .ok()
                        .and_then(|l| serde_json::from_str::<StoreHeader>(l).ok())
                        .is_some_and(|h| h == StoreHeader::current())
                {
                    header_ok = true;
                    let scan = scan_records(&mut reader, n as u64, &mut index, &mut load)?;
                    corrupt_lines = scan.corrupt;
                    // A tail without a newline: a torn append. A
                    // parseable one is adopted (writer died between the
                    // record and its newline); anything else counts as
                    // corrupt.
                    if !scan.tail.is_empty() {
                        match std::str::from_utf8(&scan.tail)
                            .ok()
                            .and_then(|l| serde_json::from_str::<StoreRecord>(l).ok())
                        {
                            Some(rec) => {
                                let span = Span {
                                    offset: n as u64 + scan.consumed,
                                    len: scan.tail.len(),
                                };
                                adopt(&mut index, rec, span, &mut load);
                            }
                            None => corrupt_lines += 1,
                        }
                    }
                }
                // Alien or future-version header, or a nonempty file
                // without any newline: the whole file is unreadable to
                // this code. Reset below.
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let fresh = index.is_empty() && corrupt_lines == 0;
        let store = ResultStore {
            path,
            inner: Mutex::new(StoreInner {
                index,
                corrupt_lines,
                append_warned: false,
            }),
        };
        // A fresh store is written out so line 1 is always the header; an
        // unrecognized generation is reset — results are recomputable.
        if !header_ok || fresh {
            store.rewrite()?;
        }
        Ok(store)
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The store's backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of loaded (plus appended) records.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Corrupt lines skipped when the store was opened (compaction
    /// resets this to zero).
    pub fn corrupt_lines(&self) -> usize {
        self.lock().corrupt_lines
    }

    /// Reads a stored outcome back from the log by its stable key
    /// digest. `None` when the key was never stored, or its record can
    /// no longer be read.
    pub fn get(&self, key: &str) -> Option<Arc<NoiseOutcome>> {
        let span = *self.lock().index.get(key)?;
        let mut text = vec![0u8; span.len];
        let mut file = File::open(&self.path).ok()?;
        file.seek(SeekFrom::Start(span.offset)).ok()?;
        file.read_exact(&mut text).ok()?;
        let rec = serde_json::from_str::<StoreRecord>(std::str::from_utf8(&text).ok()?).ok()?;
        (rec.key == key).then(|| Arc::new(rec.outcome))
    }

    /// Records one solved outcome: appends a flushed JSONL line and
    /// indexes it. A key already present is skipped (results are
    /// content-keyed, so the stored outcome is identical). Append I/O
    /// failures are reported on stderr once but never abort — a full
    /// disk degrades durability, not the campaign.
    pub fn append(&self, key: &str, outcome: &NoiseOutcome) {
        let mut inner = self.lock();
        if inner.index.contains_key(key) {
            return;
        }
        let appended = record_line(key, outcome).and_then(|line| {
            let mut file = OpenOptions::new()
                .append(true)
                .create(true)
                .open(&self.path)?;
            let offset = file.seek(SeekFrom::End(0))?;
            writeln!(file, "{line}")?;
            file.flush()?;
            Ok(Span {
                offset,
                len: line.len(),
            })
        });
        match appended {
            Ok(span) => {
                inner.index.insert(key.to_string(), span);
            }
            Err(why) => {
                if !inner.append_warned {
                    inner.append_warned = true;
                    eprintln!(
                        "voltnoise: result store {} stopped persisting ({why}); \
                         continuing in memory only",
                        self.path.display()
                    );
                }
            }
        }
    }

    /// Rewrites the backing file from the indexed records: header first,
    /// then one record per distinct key in sorted (deterministic) order,
    /// copied from the log one at a time. Corrupt and duplicate lines do
    /// not survive. Atomic: the new content is written to a sibling temp
    /// file and renamed over the store, so a crash mid-compaction cannot
    /// lose the old file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the log cannot be read or the temp file
    /// cannot be written or renamed; the original file is left untouched
    /// in that case.
    pub fn compact(&self) -> std::io::Result<()> {
        self.rewrite()
    }

    fn rewrite(&self) -> std::io::Result<()> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let tmp = self.path.with_extension("tmp");
        let mut log = if inner.index.is_empty() {
            None
        } else {
            Some(File::open(&self.path)?)
        };
        let mut records: Vec<(&String, &mut Span)> = inner.index.iter_mut().collect();
        records.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut file = BufWriter::new(File::create(&tmp)?);
        let header =
            serde_json::to_string(&StoreHeader::current()).map_err(std::io::Error::other)?;
        writeln!(file, "{header}")?;
        let mut written = header.len() as u64 + 1;
        let mut moved = Vec::with_capacity(records.len());
        let mut text = Vec::new();
        for (_, span) in &records {
            if let Some(log) = log.as_mut() {
                text.resize(span.len, 0);
                log.seek(SeekFrom::Start(span.offset))?;
                log.read_exact(&mut text)?;
            }
            file.write_all(&text)?;
            file.write_all(b"\n")?;
            moved.push(written);
            written += span.len as u64 + 1;
        }
        file.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        // The rename made the compacted positions the file's content.
        for ((_, span), offset) in records.iter_mut().zip(moved) {
            span.offset = offset;
        }
        inner.corrupt_lines = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltnoise_measure::power::PowerMeter;
    use voltnoise_measure::skitter::SkitterReading;
    use voltnoise_pdn::topology::NUM_CORES;

    fn outcome(tag: f64) -> NoiseOutcome {
        NoiseOutcome {
            readings: [SkitterReading {
                min_tap: 10,
                max_tap: 20,
                taps: 129,
                samples: 100,
            }; NUM_CORES]
                .into(),
            pct_p2p: [tag; NUM_CORES].into(),
            v_min: [1.0 - tag / 100.0; NUM_CORES].into(),
            v_max: [1.0 + tag / 100.0; NUM_CORES].into(),
            chip_power: PowerMeter::new().read(1.05, 40.0),
            traces: None,
            steps: 1234,
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "voltnoise_store_{}_{name}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let store = ResultStore::open(&path).unwrap();
            assert!(store.is_empty());
            store.append("aaaa", &outcome(5.0));
            store.append("bbbb", &outcome(7.5));
            // Duplicate key appends only once.
            store.append("aaaa", &outcome(5.0));
            assert_eq!(store.len(), 2);
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.corrupt_lines(), 0);
        let got = store.get("bbbb").unwrap();
        assert_eq!(
            serde_json::to_string(&*got).unwrap(),
            serde_json::to_string(&outcome(7.5)).unwrap()
        );
        assert!(store.get("cccc").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_lines_are_skipped_and_counted() {
        let path = tmp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let store = ResultStore::open(&path).unwrap();
            store.append("good1", &outcome(1.0));
            store.append("good2", &outcome(2.0));
        }
        // Simulate a crash artifact: a torn line and binary garbage.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{{\"key\":\"torn\",\"outcome\":{{\"reading").unwrap();
            writeln!(f, "\u{7f}\u{0}garbage").unwrap();
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.corrupt_lines(), 2);
        assert!(store.get("good1").is_some());
        // Compaction drops the corrupt lines for good.
        store.compact().unwrap();
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.corrupt_lines(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn alien_header_resets_the_store() {
        let path = tmp_path("alien");
        std::fs::write(&path, "this is not a voltnoise store\nat all\n").unwrap();
        let store = ResultStore::open(&path).unwrap();
        assert!(store.is_empty());
        store.append("k", &outcome(3.0));
        drop(store);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_version_resets_instead_of_guessing() {
        let path = tmp_path("future");
        std::fs::write(
            &path,
            format!(
                "{{\"format\":\"{STORE_FORMAT}\",\"version\":{},\
                 \"key_scheme\":\"jobkey-fnv1a128/9\"}}\n\
                 {{\"key\":\"x\",\"outcome\":\"opaque-v9-payload\"}}\n",
                STORE_VERSION + 8
            ),
        )
        .unwrap();
        let store = ResultStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.corrupt_lines(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_is_deterministic_and_sorted() {
        let path = tmp_path("compact");
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::open(&path).unwrap();
        store.append("zz", &outcome(1.0));
        store.append("aa", &outcome(2.0));
        store.compact().unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        store.compact().unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, second);
        let lines: Vec<&str> = first.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("\"aa\""), "sorted order: {}", lines[1]);
        assert!(lines[2].contains("\"zz\""));
        let _ = std::fs::remove_file(&path);
    }

    /// The whole-file loader the store used before it streamed: read
    /// everything, split on newlines, adopt a parseable torn tail.
    /// Returns `(records by key, corrupt lines)`, `None` for a reset.
    fn whole_file_reference(data: &[u8]) -> Option<(HashMap<String, String>, usize)> {
        let mut records = HashMap::new();
        let mut corrupt = 0;
        let pos = data.iter().position(|&b| b == b'\n')?;
        let header = std::str::from_utf8(&data[..pos]).ok()?;
        (serde_json::from_str::<StoreHeader>(header).ok()? == StoreHeader::current())
            .then_some(())?;
        let mut rest = &data[pos + 1..];
        let adopt = |text: &str, records: &mut HashMap<String, String>| {
            let rec = serde_json::from_str::<StoreRecord>(text).ok()?;
            let json = serde_json::to_string(&rec.outcome).unwrap();
            records.entry(rec.key).or_insert(json);
            Some(())
        };
        while let Some(end) = rest.iter().position(|&b| b == b'\n') {
            let line = &rest[..end];
            rest = &rest[end + 1..];
            match std::str::from_utf8(line).map(|l| l.trim_end_matches('\r')) {
                Ok(l) if l.trim().is_empty() => {}
                Ok(l) => {
                    if adopt(l, &mut records).is_none() {
                        corrupt += 1;
                    }
                }
                Err(_) => corrupt += 1,
            }
        }
        if !rest.is_empty()
            && std::str::from_utf8(rest)
                .ok()
                .and_then(|l| adopt(l, &mut records))
                .is_none()
        {
            corrupt += 1;
        }
        Some((records, corrupt))
    }

    #[test]
    fn streaming_open_reads_exactly_as_the_whole_file_loader() {
        let header = serde_json::to_string(&StoreHeader::current()).unwrap();
        let line = |key: &str, tag: f64| record_line(key, &outcome(tag)).unwrap();
        let mut body = String::new();
        for i in 0..40 {
            body.push_str(&line(&format!("{i:032x}"), i as f64));
            // Every fifth record ends CRLF; every seventh is followed by
            // a blank line and a whitespace-only one.
            body.push_str(if i % 5 == 0 { "\r\n" } else { "\n" });
            if i % 7 == 0 {
                body.push_str("\n   \r\n");
            }
        }
        body.push_str(&line(&format!("{:032x}", 3), 99.0)); // duplicate key
        body.push_str("\n{\"key\":\"garbled\n");
        let tails = [
            line("torn-but-complete", 1.5),    // adopted
            "{\"key\":\"torn\",\"outc".into(), // corrupt
            String::new(),
        ];
        for (case, tail) in tails.iter().enumerate() {
            let mut data = format!("{header}\n{body}").into_bytes();
            data.extend_from_slice(b"\xff\xfe not utf-8\n");
            data.extend_from_slice(tail.as_bytes());
            let path = tmp_path(&format!("streaming{case}"));
            std::fs::write(&path, &data).unwrap();
            let (expected, corrupt) = whole_file_reference(&data).unwrap();
            let mut loaded = HashMap::new();
            let store = ResultStore::open_with(&path, |key, outcome| {
                let json = serde_json::to_string(&outcome).unwrap();
                assert!(
                    loaded.insert(key.to_string(), json).is_none(),
                    "one load per key"
                );
            })
            .unwrap();
            assert_eq!(store.len(), expected.len(), "case {case}");
            assert_eq!(store.corrupt_lines(), corrupt, "case {case}");
            assert_eq!(loaded, expected, "case {case}");
            for (key, json) in &expected {
                let got = store.get(key).expect("indexed records read back");
                assert_eq!(&serde_json::to_string(&*got).unwrap(), json, "case {case}");
            }
            assert_eq!(
                store.get("torn-but-complete").is_some(),
                case == 0,
                "only a parseable torn tail is adopted"
            );
            // Compaction keeps every record, sorted, and drops the rest.
            store.compact().unwrap();
            let compacted = std::fs::read(&path).unwrap();
            let (after, corrupt_after) = whole_file_reference(&compacted).unwrap();
            assert_eq!(after, expected, "case {case}");
            assert_eq!(corrupt_after, 0);
            assert_eq!(store.corrupt_lines(), 0);
            let reopened = ResultStore::open(&path).unwrap();
            assert_eq!(reopened.len(), expected.len());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn record_lines_match_the_derived_rendering() {
        #[derive(Serialize)]
        struct Derived {
            key: String,
            outcome: NoiseOutcome,
        }
        let derived = Derived {
            key: "0123".to_string(),
            outcome: outcome(4.25),
        };
        assert_eq!(
            record_line(&derived.key, &derived.outcome).unwrap(),
            serde_json::to_string(&derived).unwrap()
        );
    }

    /// A real traced chip solve: six channels on the solver's timebase.
    fn traced_outcome() -> NoiseOutcome {
        use crate::noise::{run_noise, CoreLoad, NoiseRunConfig};
        let tb = crate::testbed::Testbed::fast();
        let loads = vec![CoreLoad::Stressmark(tb.max_stressmark(2.5e6, None)); NUM_CORES];
        let cfg = NoiseRunConfig {
            window_s: Some(10e-6),
            record_traces: true,
            ..NoiseRunConfig::default()
        };
        run_noise(tb.chip(), &loads, &cfg).unwrap()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn traced_outcome_survives_reopen_bit_exactly() {
        let path = tmp_path("traced");
        let _ = std::fs::remove_file(&path);
        let traced = traced_outcome();
        let capture = traced.traces.as_ref().unwrap();
        assert_eq!(capture.num_channels(), NUM_CORES);
        ResultStore::open(&path).unwrap().append("traced", &traced);
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().nth(1).unwrap();
        assert_eq!(
            line.matches("\"times\"").count(),
            1,
            "one timebase per record"
        );
        let mut loaded = Vec::new();
        let store = ResultStore::open_with(&path, |_, o| loaded.push(o)).unwrap();
        assert_eq!(store.corrupt_lines(), 0);
        loaded.push((*store.get("traced").unwrap()).clone());
        assert_eq!(loaded.len(), 2);
        for got in &loaded {
            let c = got.traces.as_ref().expect("the capture survives");
            assert_eq!(bits(c.times()), bits(capture.times()));
            assert_eq!(c.num_channels(), NUM_CORES);
            for (a, b) in c.channels().zip(capture.channels()) {
                assert_eq!(bits(a), bits(b));
            }
            assert_eq!(
                serde_json::to_string(got).unwrap(),
                serde_json::to_string(&traced).unwrap()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_one_store_with_per_site_timebases_resets() {
        let path = tmp_path("v1");
        let traced = traced_outcome();
        let capture = traced.traces.as_ref().unwrap();
        // The version-1 record layout: one {times, volts} trace per site.
        let per_site: Vec<_> = (0..NUM_CORES).map(|i| capture.trace(i).unwrap()).collect();
        let untraced = serde_json::to_string(&NoiseOutcome {
            traces: None,
            ..traced.clone()
        })
        .unwrap();
        assert_eq!(untraced.matches("\"traces\":null").count(), 1);
        let v1_outcome = untraced.replace(
            "\"traces\":null",
            &format!("\"traces\":{}", serde_json::to_string(&per_site).unwrap()),
        );
        assert_eq!(v1_outcome.matches("\"times\"").count(), NUM_CORES);
        std::fs::write(
            &path,
            format!(
                "{{\"format\":\"{STORE_FORMAT}\",\"version\":1,\"key_scheme\":\"{KEY_SCHEME}\"}}\n\
                 {{\"key\":\"v1\",\"outcome\":{v1_outcome}}}\n"
            ),
        )
        .unwrap();
        let mut loads = 0;
        let store = ResultStore::open_with(&path, |_, _| loads += 1).unwrap();
        assert!(store.is_empty());
        assert_eq!(loads, 0);
        assert_eq!(store.corrupt_lines(), 0);
        let header = serde_json::to_string(&StoreHeader::current()).unwrap();
        assert!(header.contains("\"version\":2"), "{header}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{header}\n")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv128_is_stable_and_sensitive() {
        let mut h = Fnv128::new();
        h.update(b"voltnoise");
        // Fixed digest: this value is part of the on-disk contract. If
        // it changes, the key scheme version must be bumped.
        assert_eq!(h.finish_hex(), "69f5776130067a9b37288bf33cabec94");
        let mut h2 = Fnv128::new();
        h2.update(b"voltnoisf");
        assert_ne!(h.finish_hex(), h2.finish_hex());
    }
}
