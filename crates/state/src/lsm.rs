//! An in-repo log-structured KV store: the persistent [`StateBackend`].
//!
//! Million-account state does not fit in RAM, so this backend keeps only a
//! small write buffer in memory and spills everything else to disk, the
//! way LSM engines (LevelDB/RocksDB) do — reduced to the three mechanisms
//! that matter here and nothing else (shim-style, no registry deps):
//!
//! - **Memtable.** Writes land in a sorted in-memory buffer. When it
//!   reaches [`LsmOptions::memtable_limit`] versions it is flushed.
//! - **Segments.** A flush appends one immutable file of fixed 92-byte
//!   records — `key (52) | height (8, BE) | value (32, BE)` — sorted by
//!   `(key, height)`. Only a **sparse index** (every
//!   [`LsmOptions::index_every`]-th record's key/height/offset) stays in
//!   memory, so index RAM is ~1/64th of the data. Because batches arrive
//!   in height order, segment height ranges are disjoint and increasing:
//!   a read scans segments newest → oldest and the first segment holding
//!   any version at or below `as_of` holds *the* newest such version.
//! - **Compaction.** When the segment count passes
//!   [`LsmOptions::compact_threshold`], all segments merge into one
//!   (versions are kept — the store is the MVCC history), bounding the
//!   per-read segment fan-out.
//!
//! A latest-state read is first a probe of the store's flat-state cache
//! (`flat.rs`): the newest version of each recently read or written key,
//! one sharded hash probe, taken before the store's lock. A miss, or a read
//! below the tip, binary-searches the sparse index and then scans at most
//! one index stride (`index_every × 92` bytes) with a single positioned
//! read.
//! Crash durability is per-flush: [`LsmBackend::flush`] fsyncs the new
//! segment, and [`LsmBackend::open`] rebuilds the sparse indexes and tip
//! from the segment files alone. Unflushed memtable contents are lost on
//! a crash, which for a node of this chain just means re-executing the
//! last few blocks.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use dmvcc_primitives::{Address, U256};

use crate::backend::{BackendStats, StateBackend};
use crate::flat::{FlatCache, FlatStats};
use crate::snapshot::WriteSet;
use crate::StateKey;

/// Ascending version list for one key; the `u64` is the commit height.
type Versions = Vec<(u64, U256)>;

/// Returns the newest version at or below `as_of` from an ascending list.
fn version_at(versions: &Versions, as_of: u64) -> Option<U256> {
    match versions.partition_point(|&(h, _)| h <= as_of) {
        0 => None,
        n => Some(versions[n - 1].1),
    }
}

/// Fixed on-disk record: `key (52) | height (8) | value (32)`.
const RECORD_BYTES: u64 = 92;

/// Tuning knobs for [`LsmBackend`].
#[derive(Debug, Clone)]
pub struct LsmOptions {
    /// Segment directory. `None` creates a unique temp directory that is
    /// removed when the backend drops (bench/DST runs).
    pub dir: Option<PathBuf>,
    /// Versions buffered in the memtable before a flush.
    pub memtable_limit: usize,
    /// Segment count that triggers a full merge compaction.
    pub compact_threshold: usize,
    /// Sparse-index stride: one in-memory entry per this many records.
    pub index_every: usize,
}

impl Default for LsmOptions {
    fn default() -> Self {
        LsmOptions {
            dir: None,
            memtable_limit: 64 * 1024,
            compact_threshold: 8,
            index_every: 64,
        }
    }
}

impl LsmOptions {
    /// A tiny configuration (flush every few writes, compact at 3
    /// segments) that forces the segment and compaction paths even in
    /// small tests and DST runs.
    pub fn tiny() -> Self {
        LsmOptions {
            dir: None,
            memtable_limit: 8,
            compact_threshold: 3,
            index_every: 4,
        }
    }
}

/// One immutable sorted segment file plus its in-memory sparse index.
#[derive(Debug)]
struct Segment {
    file: File,
    path: PathBuf,
    records: u64,
    /// `(key, height, byte offset)` of every `index_every`-th record,
    /// starting with record 0.
    index: Vec<(StateKey, u64, u64)>,
    min_height: u64,
    max_height: u64,
}

impl Segment {
    /// Newest version of `key` at or below `as_of` within this segment.
    fn get(&self, key: &StateKey, as_of: u64) -> Option<U256> {
        if self.records == 0 || self.min_height > as_of {
            return None;
        }
        let target = (*key, as_of);
        let p = self.index.partition_point(|&(k, h, _)| (k, h) <= target);
        if p == 0 {
            return None; // first record already beyond (key, as_of)
        }
        let start = self.index[p - 1].2;
        let end = self
            .index
            .get(p)
            .map(|&(_, _, off)| off)
            .unwrap_or(self.records * RECORD_BYTES);
        let mut buf = vec![0u8; (end - start) as usize];
        self.file
            .read_exact_at(&mut buf, start)
            .expect("lsm: segment read");
        let mut found = None;
        for record in buf.chunks_exact(RECORD_BYTES as usize) {
            let (k, h, v) = decode_record(record);
            if (k, h) > target {
                break;
            }
            if k == *key {
                found = Some(v);
            }
        }
        found
    }

    /// Reads every record (compaction / iteration path).
    fn read_all(&self) -> Vec<(StateKey, u64, U256)> {
        let mut buf = vec![0u8; (self.records * RECORD_BYTES) as usize];
        self.file
            .read_exact_at(&mut buf, 0)
            .expect("lsm: segment read");
        buf.chunks_exact(RECORD_BYTES as usize)
            .map(decode_record)
            .collect()
    }
}

fn encode_record(out: &mut Vec<u8>, key: &StateKey, height: u64, value: &U256) {
    out.extend_from_slice(&key.to_bytes());
    out.extend_from_slice(&height.to_be_bytes());
    out.extend_from_slice(&value.to_be_bytes());
}

fn decode_record(record: &[u8]) -> (StateKey, u64, U256) {
    let mut address_bytes = [0u8; 20];
    address_bytes.copy_from_slice(&record[..20]);
    let address = Address(address_bytes);
    let slot = U256::from_be_bytes(record[20..52].try_into().expect("slot bytes"));
    let height = u64::from_be_bytes(record[52..60].try_into().expect("height bytes"));
    let value = U256::from_be_bytes(record[60..92].try_into().expect("value bytes"));
    (StateKey::storage(address, slot), height, value)
}

#[derive(Debug, Default)]
struct Inner {
    /// Write buffer: ascending versions per key, all newer than any
    /// segment record.
    memtable: BTreeMap<StateKey, Vec<(u64, U256)>>,
    memtable_versions: usize,
    /// Oldest → newest; height ranges are disjoint and increasing.
    segments: Vec<Segment>,
}

/// The log-structured persistent backend. See the module docs for the
/// on-disk format and read path.
///
/// # Examples
///
/// ```
/// use dmvcc_primitives::{Address, U256};
/// use dmvcc_state::{LsmBackend, LsmOptions, StateBackend, StateKey};
///
/// let backend = LsmBackend::new(LsmOptions::tiny());
/// let key = StateKey::balance(Address::from_u64(1));
/// for height in 1..=20u64 {
///     backend.apply_batch(height, &[(key, U256::from(height))].into_iter().collect());
/// }
/// // Every historical version survives the flushes and compactions.
/// assert_eq!(backend.get(&key, 7), Some(U256::from(7u64)));
/// // The latest version is one cache probe away.
/// assert_eq!(backend.get(&key, 20), Some(U256::from(20u64)));
/// assert!(backend.stats().flushes > 0);
/// assert_eq!(backend.flat_stats().map(|flat| flat.hits), Some(1));
/// ```
#[derive(Debug)]
pub struct LsmBackend {
    dir: PathBuf,
    /// Whether we created `dir` ourselves (removed on drop).
    own_dir: bool,
    opts: LsmOptions,
    inner: RwLock<Inner>,
    /// The latest-state read path; filled only under `inner` (see the
    /// invalidation argument in `flat.rs`).
    pub(crate) cache: FlatCache,
    tip: AtomicU64,
    next_segment_id: AtomicU64,
    reads: AtomicU64,
    memory_reads: AtomicU64,
    segment_reads: AtomicU64,
    batches: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    segment_bytes_written: AtomicU64,
}

/// `error` with the file or directory it is about in its message.
fn naming(path: &Path, error: io::Error) -> io::Error {
    io::Error::new(error.kind(), format!("lsm: {}: {error}", path.display()))
}

/// Reads a segment file back, rebuilding its sparse index with one entry
/// per `index_every` records.
fn load_segment(path: &Path, index_every: usize) -> io::Result<Segment> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    if !len.is_multiple_of(RECORD_BYTES) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("truncated segment: {len} bytes end inside a {RECORD_BYTES}-byte record"),
        ));
    }
    let records = len / RECORD_BYTES;
    let mut index = Vec::new();
    let mut min_height = u64::MAX;
    let mut max_height = 0u64;
    let mut buf = vec![0u8; len as usize];
    file.read_exact_at(&mut buf, 0)?;
    for (i, record) in buf.chunks_exact(RECORD_BYTES as usize).enumerate() {
        let (key, height, _) = decode_record(record);
        if i % index_every == 0 {
            index.push((key, height, i as u64 * RECORD_BYTES));
        }
        min_height = min_height.min(height);
        max_height = max_height.max(height);
    }
    if records == 0 {
        min_height = 0;
    }
    Ok(Segment {
        file,
        path: path.to_path_buf(),
        records,
        index,
        min_height,
        max_height,
    })
}

/// Process-unique suffix for auto-created temp directories.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl LsmBackend {
    /// Creates an empty store. With `opts.dir == None` a unique temp
    /// directory is created and removed when the backend drops.
    pub fn new(mut opts: LsmOptions) -> Self {
        let (dir, own_dir) = match opts.dir.take() {
            Some(dir) => {
                fs::create_dir_all(&dir).expect("lsm: create dir");
                (dir, false)
            }
            None => {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.subsec_nanos())
                    .unwrap_or(0);
                let dir = std::env::temp_dir().join(format!(
                    "dmvcc-lsm-{}-{}-{}",
                    std::process::id(),
                    nanos,
                    TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
                ));
                fs::create_dir_all(&dir).expect("lsm: create temp dir");
                (dir, true)
            }
        };
        LsmBackend::at(dir, own_dir, opts)
    }

    /// An empty store over `dir`, which exists.
    fn at(dir: PathBuf, own_dir: bool, opts: LsmOptions) -> Self {
        assert!(opts.index_every > 0, "lsm: index_every must be nonzero");
        assert!(
            opts.memtable_limit > 0,
            "lsm: memtable_limit must be nonzero"
        );
        LsmBackend {
            dir,
            own_dir,
            opts,
            inner: RwLock::new(Inner::default()),
            cache: FlatCache::default(),
            tip: AtomicU64::new(0),
            next_segment_id: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            memory_reads: AtomicU64::new(0),
            segment_reads: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            segment_bytes_written: AtomicU64::new(0),
        }
    }

    /// Reopens a store from an existing segment directory, rebuilding the
    /// sparse indexes and tip from the files alone (`opts.dir` is ignored).
    ///
    /// # Errors
    ///
    /// An error naming the directory if it cannot be listed, or the segment
    /// file that cannot be read or whose length is not a whole number of
    /// records (`InvalidData`: a flush that a crash cut short).
    pub fn open(dir: PathBuf, opts: LsmOptions) -> io::Result<Self> {
        let mut paths = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| naming(&dir, e))? {
            let path = entry.map_err(|e| naming(&dir, e))?.path();
            let name = path.file_name().and_then(|n| n.to_str());
            if name.is_some_and(|n| n.starts_with("seg-") && n.ends_with(".dat")) {
                paths.push(path);
            }
        }
        paths.sort();
        let mut backend = LsmBackend::at(dir, false, opts);
        let mut inner = Inner::default();
        let mut tip = 0u64;
        let mut next_id = 0u64;
        for path in paths {
            let segment =
                load_segment(&path, backend.opts.index_every).map_err(|e| naming(&path, e))?;
            tip = tip.max(segment.max_height);
            if let Some(id) = segment_id(&segment.path) {
                next_id = next_id.max(id + 1);
            }
            inner.segments.push(segment);
        }
        backend.inner = RwLock::new(inner);
        backend.tip = AtomicU64::new(tip);
        backend.next_segment_id = AtomicU64::new(next_id);
        Ok(backend)
    }

    /// The segment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Forces the memtable to disk (fsynced segment). Idempotent.
    pub fn flush(&self) {
        let mut inner = self.inner.write().expect("lsm lock poisoned");
        self.flush_locked(&mut inner);
    }

    /// Writes sorted `(key, height, value)` records as a new fsynced
    /// segment and returns it. Records must already be `(key, height)`
    /// ascending.
    fn write_segment(&self, records: &[(StateKey, u64, U256)]) -> Segment {
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("seg-{id:08}.dat"));
        let mut bytes = Vec::with_capacity(records.len() * RECORD_BYTES as usize);
        let mut index = Vec::new();
        let mut min_height = u64::MAX;
        let mut max_height = 0u64;
        for (i, (key, height, value)) in records.iter().enumerate() {
            if i % self.opts.index_every == 0 {
                index.push((*key, *height, i as u64 * RECORD_BYTES));
            }
            min_height = min_height.min(*height);
            max_height = max_height.max(*height);
            encode_record(&mut bytes, key, *height, value);
        }
        if records.is_empty() {
            min_height = 0;
        }
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .read(true)
            .open(&path)
            .expect("lsm: create segment");
        file.write_all(&bytes).expect("lsm: write segment");
        file.sync_all().expect("lsm: fsync segment");
        self.segment_bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Segment {
            file,
            path,
            records: records.len() as u64,
            index,
            min_height,
            max_height,
        }
    }

    fn flush_locked(&self, inner: &mut Inner) {
        if inner.memtable.is_empty() {
            return;
        }
        let mut records = Vec::with_capacity(inner.memtable_versions);
        for (key, versions) in &inner.memtable {
            for &(height, value) in versions {
                records.push((*key, height, value));
            }
        }
        // BTreeMap iteration is key-ascending and versions are
        // height-ascending, so `records` is already (key, height) sorted.
        let segment = self.write_segment(&records);
        inner.segments.push(segment);
        inner.memtable.clear();
        inner.memtable_versions = 0;
        self.flushes.fetch_add(1, Ordering::Relaxed);
        if inner.segments.len() > self.opts.compact_threshold {
            self.compact_locked(inner);
        }
    }

    /// Full merge compaction: all segments become one, every version kept
    /// (the store *is* the MVCC history).
    fn compact_locked(&self, inner: &mut Inner) {
        let mut all: Vec<(StateKey, u64, U256)> = Vec::new();
        for segment in &inner.segments {
            all.extend(segment.read_all());
        }
        all.sort_unstable_by_key(|a| (a.0, a.1));
        let old: Vec<PathBuf> = inner.segments.iter().map(|s| s.path.clone()).collect();
        let merged = self.write_segment(&all);
        inner.segments = vec![merged];
        for path in old {
            let _ = fs::remove_file(path);
        }
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// The newest version of `key` at or below `as_of` in the memtable and
    /// the segments, counted in [`BackendStats`].
    fn read_locked(&self, inner: &Inner, key: &StateKey, as_of: u64) -> Option<U256> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        // Memtable versions are strictly newer than every segment record,
        // so a hit here is globally the newest version <= as_of.
        if let Some(versions) = inner.memtable.get(key) {
            if let Some(value) = version_at(versions, as_of) {
                self.memory_reads.fetch_add(1, Ordering::Relaxed);
                return Some(value);
            }
        }
        // Segment height ranges are disjoint and increasing, so the first
        // (newest) segment with any version <= as_of has the answer.
        for segment in inner.segments.iter().rev() {
            self.segment_reads.fetch_add(1, Ordering::Relaxed);
            if let Some(value) = segment.get(key, as_of) {
                return Some(value);
            }
        }
        None
    }
}

impl StateBackend for LsmBackend {
    fn name(&self) -> &'static str {
        "lsm"
    }

    fn get(&self, key: &StateKey, as_of: u64) -> Option<U256> {
        if let Some(value) = self.cache.get(key, as_of) {
            return Some(value);
        }
        let inner = self.inner.read().expect("lsm lock poisoned");
        let value = self.read_locked(&inner, key, as_of);
        // No batch lands under the read lock: at the tip, what the store
        // answered is the key's newest version.
        let tip = self.tip.load(Ordering::Acquire);
        if let Some(value) = value.filter(|_| as_of >= tip) {
            self.cache.fill(key, tip, value);
        }
        value
    }

    fn apply_batch(&self, height: u64, writes: &WriteSet) {
        if height <= self.tip.load(Ordering::Acquire) && height != 0 {
            return; // replica re-commit
        }
        let mut inner = self.inner.write().expect("lsm lock poisoned");
        for (key, value) in writes {
            let versions = inner.memtable.entry(*key).or_default();
            match versions.last_mut() {
                Some((h, v)) if *h == height => *v = *value,
                _ => {
                    versions.push((height, *value));
                    inner.memtable_versions += 1;
                }
            }
        }
        // Before the tip moves: a reader that sees the new tip finds every
        // written key's entry refreshed.
        self.cache.fill_batch(height, writes);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.writes
            .fetch_add(writes.len() as u64, Ordering::Relaxed);
        self.tip.fetch_max(height, Ordering::AcqRel);
        if inner.memtable_versions >= self.opts.memtable_limit {
            self.flush_locked(&mut inner);
        }
    }

    fn tip(&self) -> u64 {
        self.tip.load(Ordering::Acquire)
    }

    fn iter_as_of(&self, as_of: u64) -> Vec<(StateKey, U256)> {
        let inner = self.inner.read().expect("lsm lock poisoned");
        let mut live: BTreeMap<StateKey, U256> = BTreeMap::new();
        // Oldest → newest so later (higher) versions overwrite earlier
        // ones; versions above as_of are skipped entirely.
        for segment in &inner.segments {
            for (key, height, value) in segment.read_all() {
                if height <= as_of {
                    live.insert(key, value);
                }
            }
        }
        for (key, versions) in &inner.memtable {
            if let Some(value) = version_at(versions, as_of) {
                live.insert(*key, value);
            }
        }
        live.into_iter().filter(|(_, v)| !v.is_zero()).collect()
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            reads: self.reads.load(Ordering::Relaxed),
            memory_reads: self.memory_reads.load(Ordering::Relaxed),
            segment_reads: self.segment_reads.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            segment_bytes_written: self.segment_bytes_written.load(Ordering::Relaxed),
        }
    }

    fn flat_stats(&self) -> Option<FlatStats> {
        Some(self.cache.stats())
    }
}

impl Drop for LsmBackend {
    fn drop(&mut self) {
        if self.own_dir {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

fn segment_id(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("seg-")?
        .strip_suffix(".dat")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> StateKey {
        StateKey::storage(Address::from_u64(i % 7), U256::from(i))
    }

    fn batch(pairs: &[(u64, u64)]) -> WriteSet {
        pairs
            .iter()
            .map(|&(k, v)| (key(k), U256::from(v)))
            .collect()
    }

    #[test]
    fn matches_mem_backend_on_random_history() {
        use crate::MemBackend;
        let lsm = LsmBackend::new(LsmOptions::tiny());
        let mem = MemBackend::new();
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // The in-memory store keeps an old height readable while it is
        // pinned: the heights read below are pinned as the tip.
        let mut pins = vec![mem.pin(0)];
        for height in 1..=60u64 {
            let mut writes = WriteSet::new();
            for _ in 0..(next() % 6 + 1) {
                let k = key(next() % 40);
                let v = if next() % 5 == 0 {
                    U256::ZERO // tombstone
                } else {
                    U256::from(next() % 1000)
                };
                writes.insert(k, v);
            }
            lsm.apply_batch(height, &writes);
            mem.apply_batch(height, &writes);
            if [1, 13, 37].contains(&height) {
                pins.push(mem.pin(height));
            }
        }
        assert!(lsm.stats().flushes > 0, "tiny opts must hit the flush path");
        assert!(
            lsm.stats().compactions > 0,
            "tiny opts must hit the compaction path"
        );
        for as_of in [0u64, 1, 13, 37, 60] {
            for i in 0..40 {
                assert_eq!(
                    lsm.get(&key(i), as_of),
                    mem.get(&key(i), as_of),
                    "key {i} as_of {as_of}"
                );
            }
            let mut a = lsm.iter_as_of(as_of);
            let mut b = mem.iter_as_of(as_of);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "iter_as_of({as_of})");
        }
    }

    #[test]
    fn reopen_recovers_flushed_state() {
        let dir;
        {
            let backend = LsmBackend::new(LsmOptions::tiny());
            dir = backend.dir().to_path_buf();
            backend.apply_batch(1, &batch(&[(1, 10), (2, 20)]));
            backend.apply_batch(2, &batch(&[(1, 11)]));
            backend.flush();
            // Forget the temp dir so drop doesn't delete it.
            std::mem::forget(backend);
        }
        let reopened = LsmBackend::open(dir.clone(), LsmOptions::tiny()).expect("whole segments");
        assert_eq!(reopened.tip(), 2);
        assert_eq!(reopened.get(&key(1), 1), Some(U256::from(10u64)));
        assert_eq!(reopened.get(&key(1), 2), Some(U256::from(11u64)));
        assert_eq!(reopened.get(&key(2), 2), Some(U256::from(20u64)));
        std::mem::drop(reopened);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn reopening_a_segment_cut_mid_record_or_a_missing_directory_is_an_error() {
        let backend = LsmBackend::new(LsmOptions::tiny());
        backend.apply_batch(1, &batch(&[(1, 10), (2, 20), (3, 30)]));
        backend.flush();
        let segment = backend.dir().join("seg-00000000.dat");
        let whole = fs::metadata(&segment).expect("the flushed segment").len();
        assert_eq!(whole, 3 * RECORD_BYTES);
        // What a crash in the middle of the third record's write leaves.
        let file = OpenOptions::new().write(true).open(&segment).expect("open");
        file.set_len(whole - 40).expect("truncate");
        drop(file);
        let error = LsmBackend::open(backend.dir().to_path_buf(), LsmOptions::tiny())
            .expect_err("a record is cut short");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        let message = error.to_string();
        assert!(
            message.contains("seg-00000000.dat") && message.contains("truncated"),
            "{message}"
        );

        let missing = backend.dir().join("no-such-directory");
        let error = LsmBackend::open(missing, LsmOptions::tiny()).expect_err("nothing to list");
        assert_eq!(error.kind(), io::ErrorKind::NotFound);
        assert!(error.to_string().contains("no-such-directory"), "{error}");
    }

    #[test]
    fn temp_dir_removed_on_drop() {
        let backend = LsmBackend::new(LsmOptions::tiny());
        backend.apply_batch(1, &batch(&[(1, 10)]));
        backend.flush();
        let dir = backend.dir().to_path_buf();
        assert!(dir.exists());
        drop(backend);
        assert!(!dir.exists());
    }

    #[test]
    fn sparse_index_finds_every_record() {
        // More keys than index stride so most lookups land between index
        // entries.
        let backend = LsmBackend::new(LsmOptions {
            memtable_limit: 1000,
            index_every: 4,
            ..LsmOptions::tiny()
        });
        let writes: WriteSet = (0..333).map(|i| (key(i), U256::from(i + 1))).collect();
        backend.apply_batch(1, &writes);
        backend.flush();
        assert_eq!(backend.stats().flushes, 1);
        for i in 0..333 {
            assert_eq!(backend.get(&key(i), 1), Some(U256::from(i + 1)), "key {i}");
        }
        assert_eq!(backend.get(&key(999), 1), None);
        assert!(backend.stats().segment_reads > 0);
    }
}
