//! The database proper: open, lookup, upsert, compact, fsck.
//!
//! Write path (the write-ahead contract): `upsert` merges the incoming
//! record with the in-memory state, appends the *merged* record to the
//! active segment, flushes the line to the OS, and only then updates the
//! in-memory map. A kill -9 at any byte offset therefore loses at most the
//! in-flight (uncommitted) line; every record whose newline reached the
//! file survives, and replay-by-merge is idempotent so double-application
//! after an interrupted compaction changes nothing. There is no fsync per
//! upsert: the database is a cache, and a lost record costs a re-tune.
//!
//! Read path: load `index.json` if present and valid (it is a pure
//! optimization), then replay every segment with `seq > covered_seq` on
//! top. A torn tail on the newest segment is truncated away at open; a
//! segment with mid-file corruption is left byte-for-byte intact (never
//! truncate committed data) and a fresh segment becomes the append target.

use crate::lock::{DbLock, LockError, LockOptions};
use crate::read::ReadHandle;
use crate::segment::{encode_line, read_segment_bytes, SegmentScan};
use crate::spec::{DbRecord, TaskSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use telemetry::durable::{self, Appender};
use telemetry::sync::{read_or_recover, write_or_recover};

/// Version stamped into every record and the index snapshot.
pub const DB_SCHEMA_VERSION: u32 = 1;

/// Configurations retained per task spec.
pub const TOP_K: usize = 8;

const INDEX_FILE: &str = "index.json";
const SEGMENT_DIR: &str = "segments";
const QUARANTINE_FILE: &str = "quarantine.jsonl";
const LOCK_FILE: &str = "lock";

/// Database failures.
#[derive(Debug)]
pub enum DbError {
    /// Could not acquire the writer lock.
    Lock(LockError),
    /// Filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Lock(e) => write!(f, "{e}"),
            DbError::Io(e) => write!(f, "db i/o error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<LockError> for DbError {
    fn from(e: LockError) -> Self {
        DbError::Lock(e)
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

/// The atomically-swapped compacted snapshot.
#[derive(Debug, Serialize, Deserialize)]
struct Index {
    schema_version: u32,
    /// Segments with `seq <= covered_seq` are folded into `records`.
    covered_seq: u64,
    records: Vec<DbRecord>,
}

/// Summary counters for `aaltune db stats`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DbStats {
    /// Distinct task specs stored.
    pub tasks: u64,
    /// Stored configurations across all specs.
    pub configs: u64,
    /// Live segment files on disk.
    pub segments: u64,
    /// Highest segment sequence folded into the index snapshot.
    pub covered_seq: u64,
    /// Corrupt lines skipped while opening (not yet quarantined).
    pub corrupt_lines: u64,
    /// Best stored GFLOPS across all specs (0 when empty).
    pub best_gflops: f64,
}

/// Outcome of [`TuningDb::fsck`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FsckReport {
    /// Segment files examined.
    pub segments: u64,
    /// Records that survived (after replay-merge).
    pub records: u64,
    /// Committed lines whose checksum or parse failed.
    pub corrupt_lines: u64,
    /// Segments ending in a torn (uncommitted) line.
    pub torn_tails: u64,
    /// True when the index file was missing or unreadable.
    pub index_damaged: bool,
    /// Corrupt lines moved to `quarantine.jsonl` (repair mode only).
    pub quarantined: u64,
    /// True when `--repair` rebuilt the index and segments.
    pub repaired: bool,
}

impl FsckReport {
    /// A store is healthy when no committed data is unreadable. Torn
    /// tails are the *expected* kill -9 residue and do not count against
    /// health; unquarantined corrupt lines and a damaged index do.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.repaired || (self.corrupt_lines == 0 && !self.index_damaged)
    }
}

/// An open, locked tuning database.
///
/// The in-memory map lives behind an `RwLock` shared with every
/// [`ReadHandle`] handed out by [`TuningDb::read_handle`], so concurrent
/// readers (e.g. a server's `GET /best` path) see each committed upsert
/// atomically — a record is inserted fully merged, never field-by-field.
pub struct TuningDb {
    root: PathBuf,
    _lock: DbLock,
    records: Arc<RwLock<BTreeMap<String, DbRecord>>>,
    active: Appender,
    active_seq: u64,
    covered_seq: u64,
    corrupt_lines: u64,
}

impl fmt::Debug for TuningDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TuningDb")
            .field("root", &self.root)
            .field("tasks", &read_or_recover(&self.records).len())
            .field("active_seq", &self.active_seq)
            .finish_non_exhaustive()
    }
}

fn segment_path(root: &Path, seq: u64) -> PathBuf {
    root.join(SEGMENT_DIR).join(format!("seg-{seq}.jsonl"))
}

/// Lists `(seq, path)` for every segment file, ascending by seq.
fn list_segments(root: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let dir = root.join(SEGMENT_DIR);
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".jsonl")) else {
            continue;
        };
        if let Ok(seq) = seq.parse::<u64>() {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Loads the index snapshot. `None` when missing or unreadable — the
/// caller falls back to full segment replay.
fn load_index(root: &Path) -> Option<Index> {
    let body = std::fs::read_to_string(root.join(INDEX_FILE)).ok()?;
    serde_json::from_str(&body).ok()
}

/// Replaces the index snapshot through [`durable::replace`].
fn store_index(root: &Path, index: &Index) -> std::io::Result<()> {
    // aal-lint: allow(unwrap, reason = "index struct is plain data; serialization cannot fail")
    let body = serde_json::to_string_pretty(index).expect("index serializes");
    durable::replace(&root.join(INDEX_FILE), |w| w.write_all(body.as_bytes()))
}

fn merge_into(records: &mut BTreeMap<String, DbRecord>, rec: DbRecord) {
    match records.entry(rec.spec.key()) {
        std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&rec, TOP_K),
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(rec);
        }
    }
}

/// Shared nearest-neighbor scan over a record map (used by both the
/// locked writer and [`ReadHandle`]): Euclidean distance over the
/// log-shape embedding, exact spec excluded, transferability-gated,
/// ties broken by key for determinism.
pub(crate) fn nearest_in(
    records: &BTreeMap<String, DbRecord>,
    spec: &TaskSpec,
    feature: &[f64],
    k: usize,
) -> Vec<DbRecord> {
    let mut scored: Vec<(f64, &DbRecord)> = records
        .values()
        .filter(|r| r.spec != *spec && spec.transferable_from(&r.spec))
        .filter(|r| r.feature.len() == feature.len())
        .map(|r| {
            let d: f64 = r.feature.iter().zip(feature).map(|(a, b)| (a - b) * (a - b)).sum();
            (d, r)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.spec.key().cmp(&b.1.spec.key())));
    scored.into_iter().take(k).map(|(_, r)| r.clone()).collect()
}

impl TuningDb {
    /// Opens (creating if absent) the database at `root`, acquiring the
    /// writer lock with `lock_opts`. Replays segments over the index
    /// snapshot, truncates a torn tail on the newest segment, and skips
    /// (counting) any mid-file corrupt line.
    ///
    /// # Errors
    ///
    /// [`DbError::Lock`] when a live writer holds the lock past the
    /// timeout; [`DbError::Io`] on filesystem failures.
    pub fn open(root: &Path, lock_opts: &LockOptions) -> Result<TuningDb, DbError> {
        std::fs::create_dir_all(root.join(SEGMENT_DIR))?;
        let lock = DbLock::acquire(&root.join(LOCK_FILE), lock_opts)?;
        let tel = telemetry::global();
        if lock.took_over_stale {
            tel.count(crate::DB_TAKEOVER_COUNTER, 1);
        }

        let mut records = BTreeMap::new();
        let mut covered_seq = 0;
        if let Some(index) = load_index(root) {
            covered_seq = index.covered_seq;
            for rec in index.records {
                records.insert(rec.spec.key(), rec);
            }
        }

        let mut corrupt_lines = 0u64;
        let segments = list_segments(root)?;
        let mut tail_reusable = None;
        for (i, (seq, path)) in segments.iter().enumerate() {
            if *seq <= covered_seq {
                continue; // already folded into the index snapshot
            }
            let data = std::fs::read(path)?;
            let scan: SegmentScan<DbRecord> = read_segment_bytes(&data);
            corrupt_lines += scan.corrupt.len() as u64;
            for rec in scan.records {
                merge_into(&mut records, rec);
            }
            if i == segments.len() - 1 {
                // Mid-file corruption means this file holds evidence fsck
                // may quarantine — never append into it again.
                tail_reusable = scan.corrupt.is_empty().then_some(*seq);
            }
        }
        if corrupt_lines > 0 {
            tel.count(crate::DB_CORRUPT_COUNTER, corrupt_lines);
        }

        let highest = segments.last().map_or(covered_seq, |(seq, _)| *seq);
        let active_seq = match tail_reusable {
            Some(seq) if seq > covered_seq => seq,
            _ => highest + 1,
        };
        let active = durable::open_append(&segment_path(root, active_seq))?;

        #[allow(clippy::cast_precision_loss)]
        tel.gauge(crate::DB_TASKS_GAUGE, records.len() as f64);
        Ok(TuningDb {
            root: root.to_path_buf(),
            _lock: lock,
            records: Arc::new(RwLock::new(records)),
            active,
            active_seq,
            covered_seq,
            corrupt_lines,
        })
    }

    /// A cheap cloneable read-only view sharing this writer's in-memory
    /// map. Lookups through the handle stay coherent with concurrent
    /// [`TuningDb::upsert`] calls (each upsert swaps in a fully merged
    /// record under the write lock).
    #[must_use]
    pub fn read_handle(&self) -> ReadHandle {
        ReadHandle::new(Arc::clone(&self.records))
    }

    /// The database root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of distinct task specs stored.
    #[must_use]
    pub fn len(&self) -> usize {
        read_or_recover(&self.records).len()
    }

    /// True when no task has been stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        read_or_recover(&self.records).is_empty()
    }

    /// All stored records, cloned out in key order.
    #[must_use]
    pub fn records(&self) -> Vec<DbRecord> {
        read_or_recover(&self.records).values().cloned().collect()
    }

    /// Exact-hit lookup, bumping `db.hit` / `db.miss`. Returns a clone so
    /// no lock is held across the caller's use of the record.
    #[must_use]
    pub fn lookup(&self, spec: &TaskSpec) -> Option<DbRecord> {
        let got = read_or_recover(&self.records).get(&spec.key()).cloned();
        let tel = telemetry::global();
        tel.count(if got.is_some() { crate::DB_HIT_COUNTER } else { crate::DB_MISS_COUNTER }, 1);
        got
    }

    /// The `k` transfer-candidate records nearest to `feature` (Euclidean
    /// over the log-shape embedding), nearest first. Excludes the exact
    /// spec itself; only specs [`TaskSpec::transferable_from`] `spec` with
    /// matching feature arity are considered.
    #[must_use]
    pub fn nearest(&self, spec: &TaskSpec, feature: &[f64], k: usize) -> Vec<DbRecord> {
        nearest_in(&read_or_recover(&self.records), spec, feature, k)
    }

    /// Merges `rec` into the store: append the merged record to the active
    /// segment (write-ahead), flush, then apply in memory. Committed once
    /// this returns.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] when the append fails — in-memory state is then
    /// unchanged (the un-flushed line is at worst a torn tail for the
    /// next open).
    pub fn upsert(&mut self, rec: DbRecord) -> Result<(), DbError> {
        let key = rec.spec.key();
        let merged = match read_or_recover(&self.records).get(&key) {
            Some(existing) => {
                let mut m = existing.clone();
                m.merge(&rec, TOP_K);
                m
            }
            None => rec,
        };
        let line = encode_line(&merged);
        // The appender adds the newline that commits the line.
        self.active.append_line(&line[..line.len() - 1])?;
        // Readers never see the record mid-merge: the fully merged clone
        // is swapped in under the write lock only after the append landed.
        let tasks = {
            let mut records = write_or_recover(&self.records);
            records.insert(key, merged);
            records.len()
        };
        let tel = telemetry::global();
        tel.count(crate::DB_UPSERT_COUNTER, 1);
        #[allow(clippy::cast_precision_loss)]
        tel.gauge(crate::DB_TASKS_GAUGE, tasks as f64);
        Ok(())
    }

    /// Folds every segment into a fresh atomically-swapped index snapshot,
    /// deletes the covered segments, and starts a new active segment. A
    /// kill between any two steps is safe: replaying a covered segment
    /// over the index is an idempotent merge.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem failures.
    pub fn compact(&mut self) -> Result<(), DbError> {
        let covered = self.active_seq;
        let index = Index {
            schema_version: DB_SCHEMA_VERSION,
            covered_seq: covered,
            records: read_or_recover(&self.records).values().cloned().collect(),
        };
        store_index(&self.root, &index)?;
        self.covered_seq = covered;
        for (seq, path) in list_segments(&self.root)? {
            if seq <= covered {
                std::fs::remove_file(path)?;
            }
        }
        self.active_seq = covered + 1;
        self.active = durable::open_append(&segment_path(&self.root, self.active_seq))?;
        Ok(())
    }

    /// Current summary counters.
    #[must_use]
    pub fn stats(&self) -> DbStats {
        let segments = list_segments(&self.root).map(|s| s.len() as u64).unwrap_or(0);
        let records = read_or_recover(&self.records);
        DbStats {
            tasks: records.len() as u64,
            configs: records.values().map(|r| r.top_k.len() as u64).sum(),
            segments,
            covered_seq: self.covered_seq,
            corrupt_lines: self.corrupt_lines,
            best_gflops: records.values().map(|r| r.best_gflops).fold(0.0_f64, f64::max),
        }
    }

    /// Verifies (and with `repair`, rebuilds) the store at `root` without
    /// going through the truncating open path. Read-only unless `repair`:
    /// repair quarantines corrupt committed lines into `quarantine.jsonl`,
    /// rebuilds `index.json` from every surviving record, and removes the
    /// folded segments.
    ///
    /// # Errors
    ///
    /// [`DbError::Lock`] / [`DbError::Io`] as for [`TuningDb::open`].
    pub fn fsck(root: &Path, repair: bool, lock_opts: &LockOptions) -> Result<FsckReport, DbError> {
        std::fs::create_dir_all(root.join(SEGMENT_DIR))?;
        let _lock = DbLock::acquire(&root.join(LOCK_FILE), lock_opts)?;

        let mut records = BTreeMap::new();
        let index = load_index(root);
        let index_damaged = index.is_none() && root.join(INDEX_FILE).exists();
        let mut covered_seq = 0;
        if let Some(index) = index {
            covered_seq = index.covered_seq;
            for rec in index.records {
                records.insert(rec.spec.key(), rec);
            }
        }

        let mut report = FsckReport {
            segments: 0,
            records: 0,
            corrupt_lines: 0,
            torn_tails: 0,
            index_damaged,
            quarantined: 0,
            repaired: false,
        };
        let mut corrupt_raw: Vec<Vec<u8>> = Vec::new();
        let segments = list_segments(root)?;
        let mut max_seq = covered_seq;
        for (seq, path) in &segments {
            report.segments += 1;
            max_seq = max_seq.max(*seq);
            if *seq <= covered_seq {
                // Folded into the index already; still scan for damage so
                // the report sees bit-rot under the snapshot.
                let scan: SegmentScan<DbRecord> = read_segment_bytes(&std::fs::read(path)?);
                report.corrupt_lines += scan.corrupt.len() as u64;
                report.torn_tails += u64::from(scan.torn_tail);
                corrupt_raw.extend(scan.corrupt);
                continue;
            }
            let scan: SegmentScan<DbRecord> = read_segment_bytes(&std::fs::read(path)?);
            report.corrupt_lines += scan.corrupt.len() as u64;
            report.torn_tails += u64::from(scan.torn_tail);
            corrupt_raw.extend(scan.corrupt);
            for rec in scan.records {
                merge_into(&mut records, rec);
            }
        }
        report.records = records.len() as u64;
        if report.corrupt_lines > 0 {
            telemetry::global().count(crate::DB_CORRUPT_COUNTER, report.corrupt_lines);
        }

        if repair {
            if !corrupt_raw.is_empty() {
                let mut q = OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(root.join(QUARANTINE_FILE))?;
                for line in &corrupt_raw {
                    q.write_all(line)?;
                    q.write_all(b"\n")?;
                }
                q.sync_all()?;
                report.quarantined = corrupt_raw.len() as u64;
            }
            let index = Index {
                schema_version: DB_SCHEMA_VERSION,
                covered_seq: max_seq,
                records: records.into_values().collect(),
            };
            store_index(root, &index)?;
            for (seq, path) in segments {
                if seq <= max_seq {
                    std::fs::remove_file(path)?;
                }
            }
            report.repaired = true;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopConfig;
    use dnn_graph::task::{TaskKind, TuningTask, Workload};
    use schedule::{ConfigSpace, Knob};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aaltune-db-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn conv_task(out_channels: usize) -> TuningTask {
        TuningTask {
            kind: TaskKind::Conv2d,
            name: format!("m.f{out_channels}"),
            workload: Workload::Conv2d {
                batch: 1,
                in_channels: 16,
                out_channels,
                height: 28,
                width: 28,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
                groups: 1,
            },
            occurrences: 1,
        }
    }

    fn space() -> ConfigSpace {
        ConfigSpace::new("s", vec![Knob::split("a", 64, 2), Knob::choice("u", vec![0, 512])])
    }

    fn record(out_channels: usize, gflops: f64) -> DbRecord {
        let task = conv_task(out_channels);
        let s = space();
        DbRecord {
            schema_version: DB_SCHEMA_VERSION,
            spec: TaskSpec::of(&task, &s, "sim"),
            feature: TaskSpec::features(&task),
            method: "bted+bao".into(),
            seed: 0,
            n_trials: 8,
            best_gflops: gflops,
            top_k: vec![TopConfig {
                config_index: 3,
                choices: s.config(3).unwrap().choices,
                gflops,
                latency_s: 1e-3,
            }],
            curve: vec![gflops / 2.0, gflops],
        }
    }

    #[test]
    fn upsert_survives_reopen() {
        let root = tmp("reopen");
        {
            let mut db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
            db.upsert(record(32, 50.0)).unwrap();
            db.upsert(record(64, 75.0)).unwrap();
            db.upsert(record(32, 60.0)).unwrap(); // merge: better best wins
        }
        let db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
        assert_eq!(db.len(), 2);
        let spec = TaskSpec::of(&conv_task(32), &space(), "sim");
        assert_eq!(db.lookup(&spec).unwrap().best_gflops, 60.0);
    }

    #[test]
    fn torn_tail_is_truncated_and_committed_records_survive() {
        let root = tmp("torn");
        {
            let mut db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
            db.upsert(record(32, 50.0)).unwrap();
            db.upsert(record(64, 75.0)).unwrap();
        }
        // Simulate a kill -9 mid-append: chop bytes off the active segment.
        let (_, seg) = list_segments(&root).unwrap().pop().unwrap();
        let data = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &data[..data.len() - 7]).unwrap();

        let db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
        assert_eq!(db.len(), 1, "torn record is uncommitted; committed one survives");
        assert_eq!(db.stats().corrupt_lines, 0, "a torn tail is not corruption");
        // The tail was truncated: a re-scan of the file is clean.
        let scan: SegmentScan<DbRecord> = read_segment_bytes(&std::fs::read(&seg).unwrap());
        assert!(!scan.torn_tail);
    }

    #[test]
    fn midfile_corruption_is_skipped_counted_and_never_truncated() {
        let root = tmp("midfile");
        {
            let mut db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
            db.upsert(record(32, 50.0)).unwrap();
            db.upsert(record(64, 75.0)).unwrap();
        }
        let (_, seg) = list_segments(&root).unwrap().pop().unwrap();
        let mut data = std::fs::read(&seg).unwrap();
        data[20] ^= 0xFF; // bit-rot inside the first committed line
        let len_before = data.len();
        std::fs::write(&seg, &data).unwrap();

        {
            let db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
            assert_eq!(db.len(), 1, "the undamaged record survives");
            assert_eq!(db.stats().corrupt_lines, 1);
        }
        assert_eq!(
            std::fs::read(&seg).unwrap().len(),
            len_before,
            "corrupt evidence is preserved, never truncated"
        );

        // fsck --repair quarantines the bad line and rebuilds clean.
        let report = TuningDb::fsck(&root, true, &LockOptions::try_once()).unwrap();
        assert_eq!(report.quarantined, 1);
        assert!(report.healthy());
        assert!(root.join(QUARANTINE_FILE).exists());
        let report = TuningDb::fsck(&root, false, &LockOptions::try_once()).unwrap();
        assert_eq!(report.corrupt_lines, 0, "repair left no corrupt survivors");
        assert!(report.healthy());
    }

    #[test]
    fn compact_folds_segments_and_replay_is_idempotent() {
        let root = tmp("compact");
        let spec = TaskSpec::of(&conv_task(32), &space(), "sim");
        {
            let mut db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
            db.upsert(record(32, 50.0)).unwrap();
            db.compact().unwrap();
            db.upsert(record(64, 75.0)).unwrap();
            assert_eq!(db.stats().covered_seq, 1);
        }
        // Interrupted compaction: index exists AND the covered segment
        // still does (simulated by copying it back under a covered seq).
        {
            let db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
            let rec = db.lookup(&spec).unwrap();
            let line = encode_line(&rec);
            std::fs::write(segment_path(&root, 1), line).unwrap();
        }
        let db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
        assert_eq!(db.len(), 2, "replaying a covered record changes nothing");
        assert_eq!(db.lookup(&spec).unwrap().best_gflops, 50.0);
    }

    #[test]
    fn missing_index_is_rebuilt_from_segments_by_fsck() {
        let root = tmp("fsck-index");
        {
            let mut db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
            db.upsert(record(32, 50.0)).unwrap();
            db.compact().unwrap();
            db.upsert(record(64, 75.0)).unwrap();
        }
        std::fs::write(root.join(INDEX_FILE), b"{ not json").unwrap();
        let report = TuningDb::fsck(&root, false, &LockOptions::try_once()).unwrap();
        assert!(report.index_damaged);
        assert!(!report.healthy());
        let report = TuningDb::fsck(&root, true, &LockOptions::try_once()).unwrap();
        assert!(report.repaired);
        // A damaged index loses the compacted record (the segment that
        // held it was deleted by compaction) but never blocks opening.
        let db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
        assert!(!db.is_empty());
        drop(db); // release the writer lock before fsck re-acquires it
        let report = TuningDb::fsck(&root, false, &LockOptions::try_once()).unwrap();
        assert!(report.healthy());
    }

    #[test]
    fn nearest_ranks_by_shape_distance_and_gates_on_transferability() {
        let root = tmp("nearest");
        let mut db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
        db.upsert(record(32, 50.0)).unwrap();
        db.upsert(record(48, 60.0)).unwrap();
        db.upsert(record(512, 70.0)).unwrap();
        let target = conv_task(40);
        let spec = TaskSpec::of(&target, &space(), "sim");
        let feature = TaskSpec::features(&target);
        let got = db.nearest(&spec, &feature, 2);
        assert_eq!(got.len(), 2);
        assert!(got[0].spec.workload.contains(":f48:"), "48 is nearest to 40 in log space");
        assert!(got[1].spec.workload.contains(":f32:"));
        // A different device is never a transfer source.
        let other_dev = TaskSpec { device: "other".into(), ..spec.clone() };
        assert!(db.nearest(&other_dev, &feature, 2).is_empty());
        // The exact spec itself is excluded.
        let exact = TaskSpec::of(&conv_task(32), &space(), "sim");
        let exact_feat = TaskSpec::features(&conv_task(32));
        assert!(db.nearest(&exact, &exact_feat, 9).iter().all(|r| r.spec != exact));
    }

    #[test]
    fn second_writer_backs_off_while_first_holds_the_lock() {
        let root = tmp("locked");
        let db = TuningDb::open(&root, &LockOptions::try_once()).unwrap();
        let err = TuningDb::open(&root, &LockOptions::try_once()).unwrap_err();
        assert!(matches!(err, DbError::Lock(LockError::Held { .. })), "{err}");
        drop(db);
        TuningDb::open(&root, &LockOptions::try_once()).unwrap();
    }
}
