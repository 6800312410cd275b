//! The embedded store.
//!
//! Forking a loaded table is what the YCSB figures do per cell, so the
//! store shares rather than copies: keys are interned (`Arc<str>`, one
//! allocation shared by the index, the row cache and its eviction queue,
//! and by every fork), cached rows sit behind an `Arc`, and the device
//! underneath shares its blocks. Rows are *visited* — [`MiniDb::read_with`]
//! and [`MiniDb::scan_each`] lend each row to a closure straight from the
//! cache — and [`MiniDb::read`] / [`MiniDb::scan`] are the collecting
//! wrappers over them.

use services::fs::{FsClient, MountError, Xv6Fs};
use simos::World;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// Default row-cache capacity (rows). Small enough that a zipfian
/// workload still misses sometimes — Sqlite3's page cache "can handle
/// the read request well" but not perfectly (§5.4).
pub const DEFAULT_CACHE_ROWS: usize = 512;

/// Key -> `(offset, length)` of the newest version's value in the table file.
type Index = BTreeMap<Arc<str>, (u64, u64)>;

/// Why [`MiniDb::reopen`] refused a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReopenError {
    /// The device holds no xv6fs image, or a corrupt one.
    Mount(MountError),
    /// The file system has no `table.db`: not a database image.
    NoTable,
}

impl fmt::Display for ReopenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReopenError::Mount(e) => write!(f, "cannot mount the device: {e}"),
            ReopenError::NoTable => write!(f, "no table.db: not a minidb image"),
        }
    }
}

impl std::error::Error for ReopenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReopenError::Mount(e) => Some(e),
            ReopenError::NoTable => None,
        }
    }
}

impl From<MountError> for ReopenError {
    fn from(e: MountError) -> Self {
        ReopenError::Mount(e)
    }
}

/// The FIFO row cache: `order` holds exactly the keys of `rows`, oldest
/// insert first.
#[derive(Debug, Clone)]
struct RowCache {
    rows: HashMap<Arc<str>, Arc<Vec<u8>>>,
    order: VecDeque<Arc<str>>,
    cap: usize,
}

impl RowCache {
    fn put(&mut self, key: &Arc<str>, row: Vec<u8>) {
        if self.rows.insert(Arc::clone(key), Arc::new(row)).is_none() {
            self.order.push_back(Arc::clone(key));
        }
        self.evict_to_cap();
    }

    fn evict_to_cap(&mut self) {
        while self.order.len() > self.cap {
            if let Some(evict) = self.order.pop_front() {
                self.rows.remove(&evict);
            }
        }
    }
}

/// What a row access works on: every part of a [`MiniDb`] but its index,
/// so a scan can walk the index while rows are fetched and cached.
struct RowPath<'a> {
    fs: &'a mut Xv6Fs,
    table_ino: u64,
    cache: &'a mut RowCache,
    hits: &'a mut u64,
    misses: &'a mut u64,
}

impl RowPath<'_> {
    /// Lend `visit` the row of `key`: the cached copy, else the one its
    /// index `entry` (looked up only now) locates in the table file,
    /// which then goes into the cache.
    fn visit<'i, R>(
        &mut self,
        w: &mut World,
        key: &str,
        entry: impl FnOnce() -> Option<(&'i Arc<str>, &'i (u64, u64))>,
        visit: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        w.compute(30_000); // SQL parse/plan, btree descent
        if let Some(row) = self.cache.rows.get(key) {
            *self.hits += 1;
            return Some(visit(row));
        }
        let (key, &(off, len)) = entry()?;
        *self.misses += 1;
        let row = FsClient::read(self.fs, w, self.table_ino, off, len);
        let seen = visit(&row);
        self.cache.put(key, row);
        Some(seen)
    }
}

/// The embedded table store. One instance owns its FS stack, so a clone
/// is an independent database: index, row cache, counters and device
/// image. Keys, cached rows and device blocks are shared with the clone
/// until one side replaces them; writes to either never reach the other.
#[derive(Debug, Clone)]
pub struct MiniDb {
    /// The file system server stack underneath (public for stats).
    pub fs: Xv6Fs,
    table_ino: u64,
    index: Index,
    cache: RowCache,
    append_off: u64,
    /// Row-cache hits.
    pub cache_hits: u64,
    /// Row-cache misses (FS reads).
    pub cache_misses: u64,
}

impl MiniDb {
    fn over(fs: Xv6Fs, table_ino: u64, index: Index, append_off: u64) -> Self {
        MiniDb {
            fs,
            table_ino,
            index,
            cache: RowCache {
                rows: HashMap::new(),
                order: VecDeque::new(),
                cap: DEFAULT_CACHE_ROWS,
            },
            append_off,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Create a database on a fresh ramdisk of `nblocks`.
    pub fn create(w: &mut World, nblocks: usize) -> Self {
        let mut fs = Xv6Fs::mkfs(w, nblocks);
        let table_ino = fs.create(w, "table.db");
        Self::over(fs, table_ino, Index::new(), 0)
    }

    /// Reopen a database from an existing device: mount the FS, find the
    /// table file and rebuild the key index by scanning the record log
    /// (newest version of a key wins — the store is log-structured).
    ///
    /// # Errors
    ///
    /// [`ReopenError::Mount`] when the device holds no xv6fs image or a
    /// corrupt one, and
    /// [`ReopenError::NoTable`] when the file system has no `table.db`.
    pub fn reopen(w: &mut World, dev: services::blockdev::BlockDev) -> Result<Self, ReopenError> {
        let mut fs = Xv6Fs::mount(w, dev)?;
        let table_ino = fs.lookup("table.db").ok_or(ReopenError::NoTable)?;
        let size = fs.size(table_ino);
        let raw = fs.read(w, table_ino, 0, size);
        let mut index = Index::new();
        let mut off = 0usize;
        while off + 6 <= raw.len() {
            let klen = u16::from_le_bytes(raw[off..off + 2].try_into().unwrap()) as usize;
            if off + 2 + klen + 4 > raw.len() {
                break;
            }
            let key = String::from_utf8_lossy(&raw[off + 2..off + 2 + klen]);
            let vlen =
                u32::from_le_bytes(raw[off + 2 + klen..off + 6 + klen].try_into().unwrap()) as u64;
            let voff = (off + 6 + klen) as u64;
            if voff + vlen > raw.len() as u64 {
                break;
            }
            if vlen == 0 {
                index.remove(&*key); // tombstone
            } else {
                index.insert(Arc::from(key), (voff, vlen));
            }
            off = (voff + vlen) as usize;
        }
        w.compute(2000 * index.len() as u64 / 100 + 5000); // scan/parse cost
        Ok(Self::over(fs, table_ino, index, size))
    }

    /// Set the row-cache capacity.
    pub fn set_cache_rows(&mut self, rows: usize) {
        self.cache.cap = rows;
        self.cache.evict_to_cap();
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The index, and the rest of `self` as the row path over it.
    fn split(&mut self) -> (&Index, RowPath<'_>) {
        let rows = RowPath {
            fs: &mut self.fs,
            table_ino: self.table_ino,
            cache: &mut self.cache,
            hits: &mut self.cache_hits,
            misses: &mut self.cache_misses,
        };
        (&self.index, rows)
    }

    /// Insert (or overwrite) a row; journaled through the FS.
    ///
    /// A zero-length value is how the log encodes a tombstone, so an
    /// empty `row` *is* a delete: it behaves as [`MiniDb::delete`] does,
    /// here and after [`MiniDb::reopen`].
    ///
    /// # Panics
    ///
    /// Panics, before anything is written, when `key` is longer than
    /// `u16::MAX` bytes or `row` longer than `u32::MAX` bytes: the record
    /// header cannot frame them, and a truncated length would make
    /// `reopen` lose every later record.
    pub fn insert(&mut self, w: &mut World, key: &str, row: &[u8]) {
        assert!(
            u16::try_from(key.len()).is_ok(),
            "key longer than {} bytes cannot be framed",
            u16::MAX
        );
        assert!(
            u32::try_from(row.len()).is_ok(),
            "row longer than {} bytes cannot be framed",
            u32::MAX
        );
        if row.is_empty() {
            self.delete(w, key);
            return;
        }
        // Record framing: [klen u16][key][vlen u32][row].
        let mut rec = Vec::with_capacity(6 + key.len() + row.len());
        rec.extend_from_slice(&(key.len() as u16).to_le_bytes());
        rec.extend_from_slice(key.as_bytes());
        rec.extend_from_slice(&(row.len() as u32).to_le_bytes());
        rec.extend_from_slice(row);
        let off = self.append_off;
        FsClient::write(&mut self.fs, w, self.table_ino, off, &rec);
        self.append_off += rec.len() as u64;
        let loc = (off + 6 + key.len() as u64, row.len() as u64);
        // One allocation per key, however many versions and forks it has.
        let key = match self.index.get_key_value(key) {
            Some((interned, _)) => Arc::clone(interned),
            None => Arc::from(key),
        };
        self.cache.put(&key, row.to_vec());
        self.index.insert(key, loc);
        w.compute(120_000); // SQL parse/plan, btree update, VFS, journal bookkeeping
    }

    /// Lend the row of `key` to `visit`, straight from the row cache
    /// (after filling it from the FS on a miss): no copy of the row is
    /// made. `None`, and `visit` not called, when the key is not live.
    pub fn read_with<R>(
        &mut self,
        w: &mut World,
        key: &str,
        visit: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        let (index, mut rows) = self.split();
        rows.visit(w, key, || index.get_key_value(key), visit)
    }

    /// Read a full row: [`MiniDb::read_with`], copied out.
    pub fn read(&mut self, w: &mut World, key: &str) -> Option<Vec<u8>> {
        self.read_with(w, key, <[u8]>::to_vec)
    }

    /// Update one field's worth of a row (appends a new version).
    pub fn update(&mut self, w: &mut World, key: &str, field: &[u8]) -> bool {
        let Some(mut row) = self.read(w, key) else {
            return false;
        };
        let n = field.len().min(row.len());
        row[..n].copy_from_slice(&field[..n]);
        self.insert(w, key, &row);
        true
    }

    /// Lend up to `n` rows to `visit`, one [`MiniDb::read_with`] each,
    /// starting at `key` (inclusive) and in key order.
    pub fn scan_each(&mut self, w: &mut World, key: &str, n: usize, mut visit: impl FnMut(&[u8])) {
        let (index, mut rows) = self.split();
        let from = (Bound::Included(key), Bound::Unbounded);
        for entry in index.range::<str, _>(from).take(n) {
            rows.visit(w, entry.0, || Some(entry), &mut visit);
        }
    }

    /// Scan `n` rows starting at `key` (inclusive), in key order:
    /// [`MiniDb::scan_each`], copied out.
    pub fn scan(&mut self, w: &mut World, key: &str, n: usize) -> Vec<Vec<u8>> {
        let mut rows = Vec::new();
        self.scan_each(w, key, n, |row| rows.push(row.to_vec()));
        rows
    }

    /// Delete a key: writes a tombstone record (zero-length value) to the
    /// log and drops the index/cache entries — the log-structured
    /// counterpart of SQL `DELETE`.
    ///
    /// Returns whether the key existed.
    pub fn delete(&mut self, w: &mut World, key: &str) -> bool {
        if !self.index.contains_key(key) {
            return false;
        }
        let mut rec = Vec::with_capacity(6 + key.len());
        rec.extend_from_slice(&(key.len() as u16).to_le_bytes());
        rec.extend_from_slice(key.as_bytes());
        rec.extend_from_slice(&0u32.to_le_bytes()); // tombstone
        FsClient::write(&mut self.fs, w, self.table_ino, self.append_off, &rec);
        self.append_off += rec.len() as u64;
        self.index.remove(key);
        if self.cache.rows.remove(key).is_some() {
            self.cache.order.retain(|k| &**k != key);
        }
        w.compute(60_000); // SQL delete path
        true
    }

    /// Read-modify-write (workload F).
    pub fn read_modify_write(&mut self, w: &mut World, key: &str, field: &[u8]) -> bool {
        let Some(mut row) = self.read(w, key) else {
            return false;
        };
        // "Modify": flip the first byte, then apply the new field.
        if let Some(b) = row.first_mut() {
            *b = b.wrapping_add(1);
        }
        let n = field.len().min(row.len());
        row[..n].copy_from_slice(&field[..n]);
        self.insert(w, key, &row);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use services::fs::ROOT_INO;
    use simos::{CycleLedger, InvokeOpts, IpcSystem, Phase};

    struct Free;
    impl IpcSystem for Free {
        fn name(&self) -> String {
            "free".into()
        }
        fn oneway_into(&mut self, _len: usize, _opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
            out.charge(Phase::Trap, 1);
            0
        }
    }

    fn world() -> World {
        World::new(Box::new(Free))
    }

    #[test]
    fn insert_read_round_trip() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        db.insert(&mut w, "k1", b"value-one");
        db.insert(&mut w, "k2", b"value-two");
        assert_eq!(
            db.read(&mut w, "k1").as_deref(),
            Some(b"value-one".as_ref())
        );
        assert_eq!(
            db.read(&mut w, "k2").as_deref(),
            Some(b"value-two".as_ref())
        );
        assert_eq!(db.read(&mut w, "k3"), None);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn update_changes_prefix() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        db.insert(&mut w, "k", &[0u8; 100]);
        assert!(db.update(&mut w, "k", &[9u8; 10]));
        let row = db.read(&mut w, "k").unwrap();
        assert_eq!(&row[..10], &[9u8; 10]);
        assert_eq!(&row[10..], &[0u8; 90]);
        assert!(!db.update(&mut w, "missing", &[1]));
    }

    #[test]
    fn reads_survive_cache_eviction() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        db.set_cache_rows(4);
        for i in 0..32 {
            db.insert(&mut w, &format!("k{i:02}"), format!("v{i}").as_bytes());
        }
        for i in 0..32 {
            assert_eq!(
                db.read(&mut w, &format!("k{i:02}")).unwrap(),
                format!("v{i}").into_bytes()
            );
        }
        assert!(db.cache_misses > 0, "eviction must force FS reads");
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        for i in [3, 1, 2, 5, 4] {
            db.insert(&mut w, &format!("k{i}"), format!("v{i}").as_bytes());
        }
        let rows = db.scan(&mut w, "k2", 3);
        assert_eq!(rows, vec![b"v2".to_vec(), b"v3".to_vec(), b"v4".to_vec()]);
    }

    #[test]
    fn writes_hit_the_journal() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        let commits = db.fs.stats.commits;
        db.insert(&mut w, "k", &[1u8; 1000]);
        assert!(db.fs.stats.commits > commits, "insert must commit");
    }

    #[test]
    fn reopen_rebuilds_the_index() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        db.insert(&mut w, "alpha", b"one");
        db.insert(&mut w, "beta", b"two");
        db.insert(&mut w, "alpha", b"three"); // newer version wins
        let dev = db.fs.dev.clone();
        let mut db2 = MiniDb::reopen(&mut w, dev).unwrap();
        assert_eq!(db2.len(), 2);
        assert_eq!(
            db2.read(&mut w, "alpha").as_deref(),
            Some(b"three".as_ref())
        );
        assert_eq!(db2.read(&mut w, "beta").as_deref(), Some(b"two".as_ref()));
        assert_eq!(db2.read(&mut w, "gamma"), None);
    }

    #[test]
    fn delete_writes_a_tombstone_that_survives_reopen() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        db.insert(&mut w, "keep", b"k");
        db.insert(&mut w, "drop", b"d");
        assert!(db.delete(&mut w, "drop"));
        assert!(!db.delete(&mut w, "drop"), "second delete is a no-op");
        assert_eq!(db.read(&mut w, "drop"), None);
        let dev = db.fs.dev.clone();
        let mut db2 = MiniDb::reopen(&mut w, dev).unwrap();
        assert_eq!(db2.read(&mut w, "drop"), None, "tombstone replayed");
        assert_eq!(db2.read(&mut w, "keep").as_deref(), Some(b"k".as_ref()));
    }

    #[test]
    fn over_long_key_is_rejected_before_anything_is_written() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        let longest = "k".repeat(usize::from(u16::MAX));
        db.insert(&mut w, &longest, b"fits");
        let writes = db.fs.dev.writes;
        let over = "k".repeat(70_000);
        let panic = catch_unwind(AssertUnwindSafe(|| db.insert(&mut w, &over, b"v")))
            .expect_err("a key the u16 header cannot frame");
        let msg = panic.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("key longer than 65535 bytes"), "{msg}");
        assert_eq!(db.fs.dev.writes, writes, "rejected before any write");
        db.insert(&mut w, "later", b"record");
        let mut db2 = MiniDb::reopen(&mut w, db.fs.dev.clone()).unwrap();
        assert_eq!(db2.len(), 2, "the log still parses end to end");
        assert_eq!(db2.read(&mut w, &longest).as_deref(), Some(&b"fits"[..]));
        assert_eq!(db2.read(&mut w, "later").as_deref(), Some(&b"record"[..]));
    }

    #[test]
    fn empty_row_is_a_delete_on_both_sides_of_reopen() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        db.insert(&mut w, "e", b"full");
        db.insert(&mut w, "e", b""); // the tombstone encoding
        db.insert(&mut w, "never", b""); // nothing to delete: no record
        assert_eq!(db.read(&mut w, "e"), None);
        assert_eq!(db.len(), 0);
        let mut db2 = MiniDb::reopen(&mut w, db.fs.dev.clone()).unwrap();
        assert_eq!(db2.read(&mut w, "e"), None);
        assert_eq!((db2.len(), db2.append_off), (0, db.append_off));
    }

    #[test]
    fn reopen_refuses_a_file_system_without_a_table() {
        let mut w = world();
        let dev = Xv6Fs::mkfs(&mut w, 1 << 10).dev;
        let err = MiniDb::reopen(&mut w, dev).unwrap_err();
        assert_eq!(err, ReopenError::NoTable);
    }

    #[test]
    fn reopen_refuses_a_corrupt_file_system() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 10);
        // A root directory entry "x" naming inode 1000, past the table.
        let mut entry = vec![1, b'x'];
        entry.extend_from_slice(&1000u64.to_le_bytes());
        let end = db.fs.size(ROOT_INO);
        db.fs.write(&mut w, ROOT_INO, end, &entry);
        let err = MiniDb::reopen(&mut w, db.fs.dev.clone()).unwrap_err();
        let found = MountError::Corrupt {
            field: "entry inode",
            found: 1000,
        };
        assert_eq!(err, ReopenError::Mount(found));
    }

    #[test]
    fn rmw_modifies() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        db.insert(&mut w, "k", &[10u8; 50]);
        assert!(db.read_modify_write(&mut w, "k", &[7u8; 5]));
        let row = db.read(&mut w, "k").unwrap();
        assert_eq!(&row[..5], &[7u8; 5]);
    }

    #[test]
    fn delete_leaves_no_stale_eviction_entry() {
        let mut w = world();
        let mut db = MiniDb::create(&mut w, 1 << 14);
        db.set_cache_rows(2);
        db.insert(&mut w, "a", b"1");
        db.insert(&mut w, "b", b"2");
        assert!(db.delete(&mut w, "a"));
        db.insert(&mut w, "a", b"3");
        db.insert(&mut w, "c", b"4"); // evicts "b", the oldest live row
        let misses = db.cache_misses;
        assert_eq!(db.read(&mut w, "a").as_deref(), Some(b"3".as_ref()));
        assert_eq!(db.read(&mut w, "c").as_deref(), Some(b"4".as_ref()));
        assert_eq!(db.cache_misses, misses, "both live rows are still cached");
        assert_eq!(db.cache.order.len(), db.cache.rows.len());
    }
}
