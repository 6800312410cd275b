//! An xv6fs-style journaling file system server (the paper ports xv6fs
//! from FSCQ, §5.3), running on the [`crate::blockdev`] server with one
//! IPC round trip per block.
//!
//! On-disk layout (4 KiB blocks):
//!
//! ```text
//! 0            superblock (magic, alloc cursor)
//! 1            journal header (committed count + target block numbers)
//! 2..=33       journal data area (32-block write-ahead log)
//! 34..=37      inode table (128 inodes x 128 B)
//! 38..=39      block allocation bitmap
//! 40..         data blocks
//! ```
//!
//! Every write is journaled: staged blocks go to the log area first, the
//! header write is the commit point, then blocks are installed home and
//! the header cleared — so [`Xv6Fs::mount`] can recover a crash between
//! commit and install (tested with failure injection). That write
//! amplification is exactly why Figure 7(b)'s write path gains the most
//! from XPC: "write operations … cause many IPCs and data transfers
//! between the file system server and the block device server".

use crate::blockdev::{BlockDev, BLOCK_SIZE, ZERO_BLOCK};
use simos::World;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

const SUPER_BLOCK: u64 = 0;
const JOURNAL_HEADER: u64 = 1;
const JOURNAL_DATA: u64 = 2;
/// Capacity of the write-ahead log in blocks.
pub const JOURNAL_CAP: usize = 32;
const INODE_START: u64 = 34;
const INODE_BLOCKS: u64 = 4;
const INODE_BYTES: usize = 128;
/// Number of inodes.
pub const NINODES: usize = (INODE_BLOCKS as usize * BLOCK_SIZE) / INODE_BYTES;
const _: () = assert!(NINODES <= 128, "Xv6Fs::dirty is a u128 mask");
/// Block allocation bitmap (2 blocks cover 64 Ki blocks = 256 MiB).
const BITMAP_START: u64 = 38;
const BITMAP_BLOCKS: u64 = 2;
/// First data block.
pub const DATA_START: u64 = 40;
const NDIRECT: usize = 12;
/// The largest file: 12 direct blocks plus one indirect table.
const MAX_FILE_BYTES: u64 = ((NDIRECT + BLOCK_SIZE / 8) * BLOCK_SIZE) as u64;
const MAGIC: u64 = 0x7876_3666_735f_7870; // "xv6fs_xp"

/// Root directory inode.
pub const ROOT_INO: u64 = 0;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Inode {
    used: bool,
    size: u64,
    direct: [u64; NDIRECT],
    indirect: u64,
}

impl Inode {
    fn to_bytes(&self) -> [u8; INODE_BYTES] {
        let mut b = [0u8; INODE_BYTES];
        b[0] = self.used as u8;
        b[8..16].copy_from_slice(&self.size.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            b[16 + 8 * i..24 + 8 * i].copy_from_slice(&d.to_le_bytes());
        }
        b[16 + 8 * NDIRECT..24 + 8 * NDIRECT].copy_from_slice(&self.indirect.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8]) -> Inode {
        Inode {
            used: b[0] != 0,
            size: le_u64(b, 8),
            direct: std::array::from_fn(|i| le_u64(b, 16 + 8 * i)),
            indirect: le_u64(b, 16 + 8 * NDIRECT),
        }
    }
}

/// File system statistics (journal traffic feeds the write benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Journal commits performed.
    pub commits: u64,
    /// Blocks written through the journal (log + install).
    pub journaled_blocks: u64,
}

/// Why [`Xv6Fs::mount`] refused a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountError {
    /// The committed journal header names a block outside the device.
    JournalTarget {
        /// Position of the entry in the journal.
        entry: usize,
        /// The block it would install.
        target: u64,
        /// Blocks on the device.
        nblocks: u64,
    },
    /// The superblock does not carry xv6fs's magic number.
    BadMagic {
        /// The magic number found.
        found: u64,
    },
    /// A field the mount reads holds what no xv6fs image does: the
    /// allocation cursor outside the data area, an inode size past the
    /// largest file, a block pointer (an inode's, or one in the root
    /// directory's indirect table) outside the data area, or a root
    /// directory entry that runs past the directory or names the root or
    /// no inode.
    Corrupt {
        /// The field: "alloc cursor", "inode size", "inode block",
        /// "root indirect entry", "directory entry" or "entry inode".
        field: &'static str,
        /// The value it holds ("directory entry": the entry's offset).
        found: u64,
    },
}

impl fmt::Display for MountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MountError::JournalTarget {
                entry,
                target,
                nblocks,
            } => write!(
                f,
                "journal entry {entry} targets block {target} of a {nblocks}-block device"
            ),
            MountError::BadMagic { found } => {
                write!(f, "not an xv6fs device (superblock magic {found:#x})")
            }
            MountError::Corrupt { field, found } => {
                write!(f, "corrupt xv6fs image: {field} {found}")
            }
        }
    }
}

impl std::error::Error for MountError {}

/// The little-endian `u64` at byte `at` of `b`.
fn le_u64(b: &[u8], at: usize) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(word)
}

// ---- block server boundary (IPC charged here) ---------------------------
// These and `stage` take the fields they touch, not the whole `Xv6Fs`,
// so a caller can copy between the device, the mirrors and the staged
// blocks without an intermediate buffer.

fn dev_read<'d>(dev: &'d mut BlockDev, w: &mut World, blk: u64) -> &'d [u8] {
    w.ipc_roundtrip(64, BLOCK_SIZE as u64);
    dev.read(w, blk)
}

fn dev_write(dev: &mut BlockDev, w: &mut World, blk: u64, data: &[u8]) {
    w.ipc_roundtrip(64 + BLOCK_SIZE as u64, 16);
    dev.write(w, blk, data);
}

/// Stage a whole-block write of `src` into the open transaction and
/// return the staged copy: over the block's staged buffer if it has
/// one, else in a buffer from the `pool` free list.
fn stage<'s>(
    staged: &'s mut BTreeMap<u64, Vec<u8>>,
    pool: &mut Vec<Vec<u8>>,
    blk: u64,
    src: &[u8],
) -> &'s mut [u8] {
    debug_assert_eq!(src.len(), BLOCK_SIZE);
    match staged.entry(blk) {
        Entry::Occupied(e) => {
            let buf = e.into_mut();
            buf.copy_from_slice(src);
            buf
        }
        Entry::Vacant(e) => {
            let mut buf = pool.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(src);
            e.insert(buf)
        }
    }
}

/// Stage every block of a metadata mirror that starts at block `first`.
fn stage_image(
    staged: &mut BTreeMap<u64, Vec<u8>>,
    pool: &mut Vec<Vec<u8>>,
    first: u64,
    image: &[u8],
) {
    for (b, src) in image.chunks_exact(BLOCK_SIZE).enumerate() {
        stage(staged, pool, first + b as u64, src);
    }
}

/// The file system server. See the [module docs](self).
///
/// A clone is an independent server over a clone of the device: same
/// files, same counters, and no write of one reaches the other.
#[derive(Debug, Clone)]
pub struct Xv6Fs {
    /// The block device server behind this FS (public for inspection).
    pub dev: BlockDev,
    /// Written only through [`Xv6Fs::inode_mut`].
    inodes: Vec<Inode>,
    /// In-memory mirror of the on-disk inode table, stale for exactly
    /// the inodes whose bit is set in `dirty`.
    inode_img: Vec<u8>,
    dirty: u128,
    dir: Vec<(String, u64)>,
    /// In-memory mirror of the on-disk block bitmap (bit = block used).
    bitmap: Vec<u8>,
    alloc_cursor: u64,
    staged: BTreeMap<u64, Vec<u8>>,
    /// Free list of block buffers: `stage` draws from it, `sync` returns
    /// a transaction's buffers to it after install.
    pool: Vec<Vec<u8>>,
    /// `sync`'s transaction vector and journal header, kept for reuse.
    txn: Vec<(u64, Vec<u8>)>,
    hdr: Vec<u8>,
    /// Commit after every operation (the paper's Sqlite3 runs journaled).
    pub sync_mode: bool,
    /// Statistics.
    pub stats: FsStats,
}

impl Xv6Fs {
    fn with_dev(dev: BlockDev) -> Self {
        Xv6Fs {
            dev,
            inodes: vec![Inode::default(); NINODES],
            inode_img: vec![0; NINODES * INODE_BYTES],
            dirty: 0,
            dir: Vec::new(),
            bitmap: vec![0; (BITMAP_BLOCKS as usize) * BLOCK_SIZE],
            alloc_cursor: DATA_START,
            staged: BTreeMap::new(),
            pool: Vec::new(),
            txn: Vec::new(),
            hdr: Vec::new(),
            sync_mode: true,
            stats: FsStats::default(),
        }
    }

    /// Format a fresh ramdisk of `nblocks` and mount it.
    ///
    /// # Panics
    ///
    /// Panics unless `nblocks > DATA_START` (the metadata area plus at
    /// least one data block).
    pub fn mkfs(w: &mut World, nblocks: usize) -> Self {
        assert!(
            nblocks as u64 > DATA_START,
            "ramdisk of {nblocks} blocks has no room for data past block {DATA_START}"
        );
        let mut fs = Self::with_dev(BlockDev::new(nblocks));
        // Metadata blocks are permanently allocated.
        for b in 0..DATA_START {
            fs.bitmap_set(b, true);
        }
        // Root directory inode.
        fs.inode_mut(ROOT_INO).used = true;
        fs.flush_superblock(w);
        fs.flush_inodes(w);
        fs.flush_bitmap_staged();
        fs.sync(w);
        fs.clear_journal(w);
        fs
    }

    /// Mount an existing device, running journal recovery first.
    ///
    /// # Errors
    ///
    /// [`MountError::JournalTarget`] when the committed journal names a
    /// block outside the device (checked before any block is written),
    /// [`MountError::BadMagic`] when the recovered superblock is not
    /// xv6fs's (a blank or foreign device), and [`MountError::Corrupt`]
    /// when the superblock, the inode table or the root directory holds
    /// what no xv6fs image does (checked before it is used).
    pub fn mount(w: &mut World, dev: BlockDev) -> Result<Self, MountError> {
        let mut fs = Self::with_dev(dev);
        fs.recover(w)?;
        // Superblock.
        let sb = dev_read(&mut fs.dev, w, SUPER_BLOCK);
        let magic = le_u64(sb, 0);
        if magic != MAGIC {
            return Err(MountError::BadMagic { found: magic });
        }
        fs.alloc_cursor = le_u64(sb, 8);
        // Block bitmap, then inode table.
        for (b, blk) in fs.bitmap.chunks_exact_mut(BLOCK_SIZE).enumerate() {
            blk.copy_from_slice(dev_read(&mut fs.dev, w, BITMAP_START + b as u64));
        }
        for (b, blk) in fs.inode_img.chunks_exact_mut(BLOCK_SIZE).enumerate() {
            blk.copy_from_slice(dev_read(&mut fs.dev, w, INODE_START + b as u64));
        }
        let table = fs.inode_img.chunks_exact(INODE_BYTES);
        fs.inodes = table.map(Inode::from_bytes).collect();
        fs.check_metadata()?;
        // Root directory.
        fs.dir = fs.load_dir(w)?;
        Ok(fs)
    }

    /// The metadata [`Xv6Fs::mount`] read, checked before it is used: the
    /// allocation cursor, every inode's size and block pointers, and the
    /// root directory's indirect table (which loading the directory reads
    /// in place, at no device cost).
    fn check_metadata(&self) -> Result<(), MountError> {
        let corrupt = |field, found| Err(MountError::Corrupt { field, found });
        let nblocks = self.dev.len() as u64;
        let limit = nblocks.min(self.bitmap.len() as u64 * 8);
        if !(DATA_START..=limit).contains(&self.alloc_cursor) {
            return corrupt("alloc cursor", self.alloc_cursor);
        }
        let data_block = |b: &u64| *b == 0 || (DATA_START..nblocks).contains(b);
        for inode in &self.inodes {
            if inode.size > MAX_FILE_BYTES {
                return corrupt("inode size", inode.size);
            }
            let mut blocks = inode.direct.iter().chain([&inode.indirect]);
            if let Some(&b) = blocks.find(|b| !data_block(b)) {
                return corrupt("inode block", b);
            }
        }
        let table = self.inodes[ROOT_INO as usize].indirect;
        if table != 0 {
            let mut slots = self.dev.peek(table).chunks_exact(8).map(|s| le_u64(s, 0));
            if let Some(b) = slots.find(|b| !data_block(b)) {
                return corrupt("root indirect entry", b);
            }
        }
        Ok(())
    }

    // ---- journal ---------------------------------------------------------

    fn clear_journal(&mut self, w: &mut World) {
        dev_write(&mut self.dev, w, JOURNAL_HEADER, &ZERO_BLOCK);
    }

    /// Install a committed journal, every target checked against the
    /// device before the first block is written.
    fn recover(&mut self, w: &mut World) -> Result<(), MountError> {
        let hdr = dev_read(&mut self.dev, w, JOURNAL_HEADER);
        let n = le_u64(hdr, 0);
        if n == 0 || n > JOURNAL_CAP as u64 {
            return Ok(());
        }
        let targets: Vec<u64> = (0..n as usize).map(|i| le_u64(hdr, 8 + 8 * i)).collect();
        let nblocks = self.dev.len() as u64;
        if let Some(entry) = targets.iter().position(|&t| t >= nblocks) {
            let target = targets[entry];
            return Err(MountError::JournalTarget {
                entry,
                target,
                nblocks,
            });
        }
        for (i, &target) in targets.iter().enumerate() {
            let data = dev_read(&mut self.dev, w, JOURNAL_DATA + i as u64).to_vec();
            dev_write(&mut self.dev, w, target, &data);
        }
        self.clear_journal(w);
        Ok(())
    }

    /// Steps 1–2 of a commit: log `chunk`, then write the header (the
    /// commit point).
    fn log_and_commit(&mut self, w: &mut World, chunk: &[(u64, Vec<u8>)]) {
        for (i, (_, data)) in chunk.iter().enumerate() {
            dev_write(&mut self.dev, w, JOURNAL_DATA + i as u64, data);
        }
        self.hdr.clear();
        self.hdr.resize(BLOCK_SIZE, 0);
        self.hdr[0..8].copy_from_slice(&(chunk.len() as u64).to_le_bytes());
        for (i, (blk, _)) in chunk.iter().enumerate() {
            self.hdr[8 + 8 * i..16 + 8 * i].copy_from_slice(&blk.to_le_bytes());
        }
        dev_write(&mut self.dev, w, JOURNAL_HEADER, &self.hdr);
    }

    /// Commit the staged transaction: log, commit point, install, clear.
    pub(crate) fn sync(&mut self, w: &mut World) {
        if self.staged.is_empty() {
            return;
        }
        let mut txn = std::mem::take(&mut self.txn);
        txn.extend(std::mem::take(&mut self.staged));
        // Large transactions commit in journal-capacity chunks.
        for chunk in txn.chunks(JOURNAL_CAP) {
            self.log_and_commit(w, chunk);
            // 3. Install.
            for (blk, data) in chunk {
                dev_write(&mut self.dev, w, *blk, data);
            }
            // 4. Clear.
            self.clear_journal(w);
            self.stats.commits += 1;
            self.stats.journaled_blocks += chunk.len() as u64;
        }
        self.pool.extend(txn.drain(..).map(|(_, buf)| buf));
        self.txn = txn;
    }

    /// Failure injection: run steps 1–2 of `Xv6Fs::sync` (log + commit
    /// point) and then "crash" — staged data reaches only the journal.
    /// A subsequent [`Xv6Fs::mount`] must recover it.
    pub fn sync_crash_before_install(&mut self, w: &mut World) -> BlockDev {
        let mut txn = Vec::from_iter(std::mem::take(&mut self.staged));
        txn.truncate(JOURNAL_CAP);
        self.log_and_commit(w, &txn);
        // Crash: hand the raw device to the caller.
        self.dev.clone()
    }

    // ---- metadata persistence -------------------------------------------

    /// The one write access to an inode: marks it stale in `inode_img`.
    fn inode_mut(&mut self, ino: u64) -> &mut Inode {
        self.dirty |= 1 << ino;
        &mut self.inodes[ino as usize]
    }

    fn flush_superblock(&mut self, w: &mut World) {
        self.flush_superblock_staged();
        if self.sync_mode {
            self.sync(w);
        }
    }

    fn flush_inodes(&mut self, w: &mut World) {
        self.flush_inodes_staged();
        if self.sync_mode {
            self.sync(w);
        }
    }

    /// The root directory's entries, each checked to lie within the
    /// directory and to name an inode other than the root.
    fn load_dir(&mut self, w: &mut World) -> Result<Vec<(String, u64)>, MountError> {
        let size = self.inodes[ROOT_INO as usize].size;
        let raw = self.read_inode(w, ROOT_INO, 0, size);
        let mut dir = Vec::new();
        let mut off = 0;
        while off < raw.len() {
            let nlen = raw[off] as usize;
            let Some(entry) = raw.get(off + 1..off + 9 + nlen) else {
                let found = off as u64;
                return Err(MountError::Corrupt {
                    field: "directory entry",
                    found,
                });
            };
            let (name, ino) = (&entry[..nlen], le_u64(entry, nlen));
            if ino == ROOT_INO || ino >= NINODES as u64 {
                return Err(MountError::Corrupt {
                    field: "entry inode",
                    found: ino,
                });
            }
            dir.push((String::from_utf8_lossy(name).into_owned(), ino));
            off += 9 + nlen;
        }
        Ok(dir)
    }

    fn store_dir(&mut self, w: &mut World) {
        let mut raw = Vec::new();
        for (name, ino) in self.dir.clone() {
            raw.push(name.len() as u8);
            raw.extend_from_slice(name.as_bytes());
            raw.extend_from_slice(&ino.to_le_bytes());
        }
        // The directory may shrink (unlink): reset its size first.
        self.inode_mut(ROOT_INO).size = 0;
        self.write(w, ROOT_INO, 0, &raw);
        // An emptied directory still needs its metadata journaled.
        if raw.is_empty() {
            self.flush_inodes(w);
        }
    }

    // ---- block mapping ----------------------------------------------------

    /// Map file block index -> device block, allocating when `alloc`.
    fn bmap(&mut self, ino: u64, fbn: u64, alloc: bool) -> u64 {
        let per_block = (BLOCK_SIZE / 8) as u64;
        if fbn < NDIRECT as u64 {
            let cur = self.inodes[ino as usize].direct[fbn as usize];
            if cur != 0 || !alloc {
                return cur;
            }
            let blk = self.alloc_block();
            self.inode_mut(ino).direct[fbn as usize] = blk;
            return blk;
        }
        let idx = fbn - NDIRECT as u64;
        assert!(idx < per_block, "file too large for single indirect");
        // Indirect table lives in a device block.
        let mut itable_blk = self.inodes[ino as usize].indirect;
        if itable_blk == 0 {
            if !alloc {
                return 0;
            }
            itable_blk = self.alloc_block();
            self.inode_mut(ino).indirect = itable_blk;
            stage(&mut self.staged, &mut self.pool, itable_blk, &ZERO_BLOCK);
        }
        // Read the slot in place; the table is copied only to change it.
        let table = match self.staged.get(&itable_blk) {
            Some(st) => st,
            None => self.dev.peek(itable_blk),
        };
        let slot = idx as usize * 8;
        let cur = u64::from_le_bytes(table[slot..slot + 8].try_into().unwrap());
        if cur != 0 || !alloc {
            return cur;
        }
        let blk = self.alloc_block();
        let table = match self.staged.get_mut(&itable_blk) {
            Some(st) => st,
            None => stage(
                &mut self.staged,
                &mut self.pool,
                itable_blk,
                self.dev.peek(itable_blk),
            ),
        };
        table[slot..slot + 8].copy_from_slice(&blk.to_le_bytes());
        blk
    }

    fn bitmap_get(&self, blk: u64) -> bool {
        (self.bitmap[(blk / 8) as usize] >> (blk % 8)) & 1 == 1
    }

    fn bitmap_set(&mut self, blk: u64, used: bool) {
        let byte = &mut self.bitmap[(blk / 8) as usize];
        if used {
            *byte |= 1 << (blk % 8);
        } else {
            *byte &= !(1 << (blk % 8));
        }
    }

    fn flush_bitmap_staged(&mut self) {
        stage_image(&mut self.staged, &mut self.pool, BITMAP_START, &self.bitmap);
    }

    /// Allocate a data block from the bitmap (rotating first-fit).
    fn alloc_block(&mut self) -> u64 {
        let limit = (self.dev.len() as u64).min(self.bitmap.len() as u64 * 8);
        for step in 0..limit {
            let b = DATA_START + (self.alloc_cursor - DATA_START + step) % (limit - DATA_START);
            if !self.bitmap_get(b) {
                self.bitmap_set(b, true);
                self.alloc_cursor = b + 1;
                return b;
            }
        }
        panic!("ramdisk full");
    }

    /// Free a data block.
    fn free_block(&mut self, blk: u64) {
        debug_assert!(blk >= DATA_START);
        self.bitmap_set(blk, false);
    }

    // ---- public file API ---------------------------------------------------

    /// Create a file, returning its inode number.
    ///
    /// # Panics
    ///
    /// Panics when the inode table is exhausted, the name is taken, or
    /// the name is longer than the 255 bytes a directory entry can hold.
    pub fn create(&mut self, w: &mut World, name: &str) -> u64 {
        assert!(name.len() <= 255, "file name longer than 255 bytes");
        assert!(self.lookup(name).is_none(), "file exists: {name}");
        let ino = self
            .inodes
            .iter()
            .position(|i| !i.used)
            .expect("inode table full") as u64;
        let inode = self.inode_mut(ino);
        inode.used = true;
        inode.size = 0;
        self.dir.push((name.to_string(), ino));
        self.store_dir(w);
        self.flush_inodes(w);
        ino
    }

    /// Delete a file: free its data blocks (direct, indirect, and the
    /// indirect table itself) back to the bitmap, clear the inode, drop
    /// the directory entry — all journaled.
    ///
    /// Returns whether the file existed.
    ///
    /// # Panics
    ///
    /// If the directory names the root inode, which [`Xv6Fs::create`]
    /// never enters.
    pub fn unlink(&mut self, w: &mut World, name: &str) -> bool {
        let Some(ino) = self.lookup(name) else {
            return false;
        };
        assert_ne!(ino, ROOT_INO, "cannot unlink the root directory");
        let inode = self.inodes[ino as usize].clone();
        for blk in inode.direct {
            if blk != 0 {
                self.free_block(blk);
            }
        }
        if inode.indirect != 0 {
            let table = self
                .staged
                .get(&inode.indirect)
                .cloned()
                .unwrap_or_else(|| self.dev.peek(inode.indirect).to_vec());
            for slot in table.chunks_exact(8) {
                let blk = u64::from_le_bytes(slot.try_into().unwrap());
                if blk != 0 {
                    self.free_block(blk);
                }
            }
            self.free_block(inode.indirect);
            self.staged.remove(&inode.indirect);
        }
        *self.inode_mut(ino) = Inode::default();
        self.dir.retain(|(n, _)| n != name);
        self.store_dir(w);
        self.flush_inodes_staged();
        self.flush_bitmap_staged();
        if self.sync_mode {
            self.sync(w);
        }
        true
    }

    /// Look up a file by name.
    pub fn lookup(&self, name: &str) -> Option<u64> {
        self.dir.iter().find(|(n, _)| n == name).map(|(_, i)| *i)
    }

    /// File size.
    pub fn size(&self, ino: u64) -> u64 {
        self.inodes[ino as usize].size
    }

    /// Read `len` bytes at `off` (server-side; the fs→blockdev IPC is
    /// charged per block run).
    pub fn read(&mut self, w: &mut World, ino: u64, off: u64, len: u64) -> Vec<u8> {
        w.compute(2000); // inode lock, bmap, request validation
        self.read_inode(w, ino, off, len)
    }

    fn read_inode(&mut self, w: &mut World, ino: u64, off: u64, len: u64) -> Vec<u8> {
        let size = self.inodes[ino as usize].size;
        // `len` is the caller's: "read to EOF" may pass `u64::MAX`.
        let end = off.saturating_add(len).min(size);
        if off >= end {
            return Vec::new();
        }
        // Plan the spans first so physically contiguous device blocks can
        // be fetched with one scatter-gather request to the block server
        // (real block-device protocols are multi-block; issuing one IPC
        // per 4 KiB would overstate read-path IPC counts).
        struct Span {
            blk: u64, // 0 = hole
            boff: usize,
            take: usize,
        }
        let mut spans = Vec::new();
        let mut pos = off;
        while pos < end {
            let fbn = pos / BLOCK_SIZE as u64;
            let boff = (pos % BLOCK_SIZE as u64) as usize;
            let take = ((BLOCK_SIZE - boff) as u64).min(end - pos) as usize;
            let blk = self.bmap(ino, fbn, false);
            spans.push(Span { blk, boff, take });
            pos += take as u64;
        }
        let mut out = Vec::with_capacity((end - off) as usize);
        let mut i = 0;
        while i < spans.len() {
            let s = &spans[i];
            if s.blk == 0 {
                out.extend(std::iter::repeat_n(0u8, s.take));
                i += 1;
            } else if self.staged.contains_key(&s.blk) {
                let st = &self.staged[&s.blk];
                out.extend_from_slice(&st[s.boff..s.boff + s.take]);
                i += 1;
            } else {
                // Extend the run over physically consecutive device blocks.
                let mut j = i + 1;
                let mut run_bytes = s.take as u64;
                while j < spans.len()
                    && spans[j].blk == spans[j - 1].blk + 1
                    && !self.staged.contains_key(&spans[j].blk)
                {
                    run_bytes += spans[j].take as u64;
                    j += 1;
                }
                w.ipc_roundtrip(64, run_bytes);
                for s in &spans[i..j] {
                    let data = self.dev.read(w, s.blk);
                    out.extend_from_slice(&data[s.boff..s.boff + s.take]);
                }
                i = j;
            }
        }
        out
    }

    /// Write `data` at `off` (journaled; commits immediately in
    /// `sync_mode`, otherwise at the next `Xv6Fs::sync`).
    ///
    /// # Panics
    ///
    /// Panics with "file too large for single indirect" when the write
    /// ends past 2 MiB + 48 KiB (12 direct blocks plus one indirect
    /// table), and with "ramdisk full" when no data block is free.
    pub fn write(&mut self, w: &mut World, ino: u64, off: u64, data: &[u8]) {
        w.compute(2500); // inode lock, bmap/alloc, log bookkeeping
        let mut pos = 0usize;
        while pos < data.len() {
            let fpos = off + pos as u64;
            let fbn = fpos / BLOCK_SIZE as u64;
            let boff = (fpos % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - boff).min(data.len() - pos);
            let blk = self.bmap(ino, fbn, true);
            let chunk = &data[pos..pos + take];
            if let Some(st) = self.staged.get_mut(&blk) {
                st[boff..boff + take].copy_from_slice(chunk);
            } else if take == BLOCK_SIZE {
                stage(&mut self.staged, &mut self.pool, blk, chunk);
            } else {
                // Partial block: read-modify-write.
                let old = dev_read(&mut self.dev, w, blk);
                stage(&mut self.staged, &mut self.pool, blk, old)[boff..boff + take]
                    .copy_from_slice(chunk);
            }
            pos += take;
        }
        let inode = self.inode_mut(ino);
        inode.size = inode.size.max(off + data.len() as u64);
        self.flush_inodes_staged();
        self.flush_superblock_staged();
        self.flush_bitmap_staged();
        if self.sync_mode {
            self.sync(w);
        }
    }

    fn flush_inodes_staged(&mut self) {
        // Bring the image up to date for the inodes written since the
        // last flush, then stage the whole table: all four blocks are
        // journaled on every flush.
        while self.dirty != 0 {
            let ino = self.dirty.trailing_zeros() as usize;
            self.dirty &= self.dirty - 1;
            self.inode_img[ino * INODE_BYTES..][..INODE_BYTES]
                .copy_from_slice(&self.inodes[ino].to_bytes());
        }
        stage_image(
            &mut self.staged,
            &mut self.pool,
            INODE_START,
            &self.inode_img,
        );
    }

    fn flush_superblock_staged(&mut self) {
        let sb = stage(&mut self.staged, &mut self.pool, SUPER_BLOCK, &ZERO_BLOCK);
        sb[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        sb[8..16].copy_from_slice(&self.alloc_cursor.to_le_bytes());
    }
}

/// Client-side handle: adds the client→fs IPC hop to every call
/// (the paper's applications talk to the FS *server*, not a library).
#[derive(Debug)]
pub struct FsClient;

impl FsClient {
    /// Client read: VFS layer + request + data-carrying reply. `len` may
    /// run past the end of the file (`u64::MAX` reads to EOF): the reply
    /// is priced for the bytes the file holds from `off`, exactly as the
    /// read of that length is. A read that *starts* at or past EOF keeps
    /// its asked-for reply length, capped at the file size.
    pub fn read(fs: &mut Xv6Fs, w: &mut World, ino: u64, off: u64, len: u64) -> Vec<u8> {
        w.compute(1500); // client VFS: fd table, offset bookkeeping
        let size = fs.size(ino);
        let avail = if off < size { size - off } else { size };
        w.ipc_roundtrip(64, len.min(avail));
        fs.read(w, ino, off, len)
    }

    /// Client write: VFS layer + data-carrying request + small reply.
    pub fn write(fs: &mut Xv6Fs, w: &mut World, ino: u64, off: u64, data: &[u8]) {
        w.compute(1500);
        w.ipc_roundtrip(64 + data.len() as u64, 16);
        fs.write(w, ino, off, data);
    }

    /// Client create.
    pub fn create(fs: &mut Xv6Fs, w: &mut World, name: &str) -> u64 {
        w.ipc_roundtrip(64 + name.len() as u64, 16);
        fs.create(w, name)
    }

    /// Client sync.
    pub fn sync(fs: &mut Xv6Fs, w: &mut World) {
        w.ipc_roundtrip(64, 16);
        fs.sync(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{CycleLedger, InvokeOpts, IpcSystem, Phase};

    /// Count of free data blocks: a bitmap census, the oracle the
    /// allocation tests check `unlink` and `mkfs` against.
    fn free_blocks(fs: &Xv6Fs) -> u64 {
        let limit = (fs.dev.len() as u64).min(fs.bitmap.len() as u64 * 8);
        (DATA_START..limit).filter(|&b| !fs.bitmap_get(b)).count() as u64
    }

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
    fn create_write_read_round_trip() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let ino = fs.create(&mut w, "hello.txt");
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        fs.write(&mut w, ino, 0, &data);
        assert_eq!(fs.read(&mut w, ino, 0, data.len() as u64), data);
        assert_eq!(fs.size(ino), data.len() as u64);
    }

    #[test]
    fn partial_overwrite() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let ino = fs.create(&mut w, "f");
        fs.write(&mut w, ino, 0, &[1u8; 8192]);
        fs.write(&mut w, ino, 100, &[2u8; 50]);
        let back = fs.read(&mut w, ino, 0, 8192);
        assert_eq!(&back[..100], &[1u8; 100][..]);
        assert_eq!(&back[100..150], &[2u8; 50][..]);
        assert_eq!(&back[150..], &[1u8; 8042][..]);
    }

    #[test]
    fn sparse_and_offset_writes() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let ino = fs.create(&mut w, "sparse");
        fs.write(&mut w, ino, 100_000, b"tail");
        assert_eq!(fs.size(ino), 100_004);
        assert_eq!(fs.read(&mut w, ino, 100_000, 4), b"tail");
        assert_eq!(fs.read(&mut w, ino, 0, 4), vec![0u8; 4], "hole reads zero");
    }

    #[test]
    fn large_file_uses_indirect_blocks() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 8192);
        let ino = fs.create(&mut w, "big");
        // > 12 * 4096 = 48 KiB forces the indirect path.
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 256) as u8).collect();
        fs.write(&mut w, ino, 0, &data);
        assert_eq!(fs.read(&mut w, ino, 0, data.len() as u64), data);
    }

    #[test]
    fn persistence_across_mount() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let ino = fs.create(&mut w, "persist");
        fs.write(&mut w, ino, 0, b"survives remount");
        let dev = fs.dev.clone();
        let mut fs2 = Xv6Fs::mount(&mut w, dev).unwrap();
        let ino2 = fs2.lookup("persist").expect("directory persisted");
        assert_eq!(ino2, ino);
        assert_eq!(fs2.read(&mut w, ino2, 0, 16), b"survives remount");
    }

    #[test]
    fn crash_after_commit_recovers() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let ino = fs.create(&mut w, "crashy");
        fs.sync_mode = false;
        fs.write(&mut w, ino, 0, b"committed but not installed");
        let dev = fs.sync_crash_before_install(&mut w);
        // Remount: recovery must replay the journal.
        let mut fs2 = Xv6Fs::mount(&mut w, dev).unwrap();
        let ino2 = fs2.lookup("crashy").unwrap();
        assert_eq!(
            fs2.read(&mut w, ino2, 0, 27),
            b"committed but not installed"
        );
    }

    #[test]
    fn crash_before_commit_loses_cleanly() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let ino = fs.create(&mut w, "f");
        fs.write(&mut w, ino, 0, b"old");
        fs.sync_mode = false;
        fs.write(&mut w, ino, 0, b"new");
        // Crash with the transaction only staged in memory.
        let dev = fs.dev.clone();
        let mut fs2 = Xv6Fs::mount(&mut w, dev).unwrap();
        let ino2 = fs2.lookup("f").unwrap();
        assert_eq!(fs2.read(&mut w, ino2, 0, 3), b"old", "atomicity");
    }

    #[test]
    fn unlink_frees_blocks_for_reuse() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let free0 = free_blocks(&fs);
        let ino = fs.create(&mut w, "victim");
        fs.write(&mut w, ino, 0, &vec![7u8; 100_000]); // forces indirect
        let free_after_write = free_blocks(&fs);
        assert!(free_after_write < free0);
        assert!(fs.unlink(&mut w, "victim"));
        assert!(fs.lookup("victim").is_none());
        assert!(
            free_blocks(&fs) > free_after_write + 20,
            "data + indirect blocks returned"
        );
        assert!(!fs.unlink(&mut w, "victim"), "second unlink is a no-op");
        // The freed space is genuinely reusable.
        let ino2 = fs.create(&mut w, "next");
        fs.write(&mut w, ino2, 0, &vec![9u8; 100_000]);
        assert_eq!(fs.read(&mut w, ino2, 0, 4), vec![9u8; 4]);
    }

    #[test]
    fn unlink_persists_across_mount() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let a = fs.create(&mut w, "a");
        fs.write(&mut w, a, 0, b"stay");
        let b = fs.create(&mut w, "b");
        fs.write(&mut w, b, 0, b"go");
        fs.unlink(&mut w, "b");
        let dev = fs.dev.clone();
        let mut fs2 = Xv6Fs::mount(&mut w, dev).unwrap();
        assert!(fs2.lookup("b").is_none(), "unlink persisted");
        let a2 = fs2.lookup("a").unwrap();
        assert_eq!(fs2.read(&mut w, a2, 0, 4), b"stay");
    }

    #[test]
    fn writes_generate_journal_traffic() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let ino = fs.create(&mut w, "f");
        let commits_before = fs.stats.commits;
        fs.write(&mut w, ino, 0, &[9u8; 4096]);
        assert!(fs.stats.commits > commits_before);
        assert!(fs.stats.journaled_blocks > 0);
    }

    #[test]
    fn read_is_cheaper_than_write_in_ipc_terms() {
        let mut setup = world();
        let mut fs = Xv6Fs::mkfs(&mut setup, 4096);
        let ino = fs.create(&mut setup, "f");
        fs.write(&mut setup, ino, 0, &[1u8; 8192]);

        let mut wr = world();
        fs.write(&mut wr, ino, 0, &[2u8; 8192]);
        let write_ipcs = wr.stats.ipc_count;
        let mut rd = world();
        let _ = fs.read(&mut rd, ino, 0, 8192);
        assert!(
            write_ipcs > 2 * rd.stats.ipc_count,
            "journaling amplifies write IPCs: {} vs {}",
            write_ipcs,
            rd.stats.ipc_count
        );
    }

    #[test]
    fn reads_clamp_to_eof_for_any_len() {
        let mut setup = world();
        let mut fs = Xv6Fs::mkfs(&mut setup, 4096);
        let ino = fs.create(&mut setup, "f");
        let data: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
        fs.write(&mut setup, ino, 0, &data);
        for off in [0u64, 10, 4_999] {
            let charges = |w: &World| {
                let s = &w.stats;
                (w.cycles, s.ipc_count, s.payload_bytes, s.other_cycles)
            };
            let mut exact = world();
            let want = FsClient::read(&mut fs, &mut exact, ino, off, 5_000 - off);
            assert_eq!(want, &data[off as usize..]);
            for len in [u64::MAX, u64::MAX - off, 5_001] {
                let mut w = world();
                assert_eq!(FsClient::read(&mut fs, &mut w, ino, off, len), want);
                assert_eq!(charges(&w), charges(&exact), "off {off} len {len}");
            }
        }
        // Starting at or past EOF returns nothing, for any `len`.
        for off in [5_000, 1 << 30, u64::MAX] {
            let got = FsClient::read(&mut fs, &mut world(), ino, off, u64::MAX);
            assert!(got.is_empty(), "off {off}");
        }
    }

    #[test]
    fn steady_state_appends_reuse_their_buffers() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 1 << 14);
        let ino = fs.create(&mut w, "table.db");
        let row = [0x5au8; 1018];
        let mut off = 0;
        let mut append = |fs: &mut Xv6Fs, n: usize| {
            for _ in 0..n {
                FsClient::write(fs, &mut w, ino, off, &row);
                off += row.len() as u64;
            }
        };
        append(&mut fs, 50); // past the direct blocks, into the indirect table
        let buffers = fs.pool.len() + fs.staged.len();
        let (txn_cap, hdr_cap) = (fs.txn.capacity(), fs.hdr.capacity());
        assert!(buffers > 0 && txn_cap > 0 && hdr_cap >= BLOCK_SIZE);
        append(&mut fs, 200);
        assert_eq!(fs.pool.len() + fs.staged.len(), buffers, "free list grew");
        assert_eq!((fs.txn.capacity(), fs.hdr.capacity()), (txn_cap, hdr_cap));
        assert!(fs.pool.iter().all(|b| b.len() == BLOCK_SIZE));
    }

    #[test]
    fn mount_refuses_a_blank_device() {
        let err = Xv6Fs::mount(&mut world(), BlockDev::new(4096)).unwrap_err();
        assert_eq!(err, MountError::BadMagic { found: 0 });
    }

    #[test]
    fn mount_refuses_a_journal_target_outside_the_device() {
        let mut w = world();
        let mut dev = Xv6Fs::mkfs(&mut w, 64).dev;
        // A committed two-entry journal whose second target is block 64
        // of 64.
        let mut hdr = vec![0u8; BLOCK_SIZE];
        for (at, word) in [(0, 2u64), (8, DATA_START), (16, 64)] {
            hdr[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
        dev.write(&mut w, JOURNAL_HEADER, &hdr);
        let mut mounting = world();
        let err = Xv6Fs::mount(&mut mounting, dev).unwrap_err();
        assert_eq!(
            err,
            MountError::JournalTarget {
                entry: 1,
                target: 64,
                nblocks: 64
            }
        );
        // One request, the header read: no entry was installed, the
        // in-range first one included.
        assert_eq!(mounting.stats.ipc_count, 1);
    }

    /// What mounting a 64-block image holding one file refuses, after
    /// `corrupt` edits it in memory and its superblock and inode table
    /// are written back.
    fn mount_corrupted(corrupt: impl FnOnce(&mut Xv6Fs, &mut World)) -> MountError {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 64);
        fs.create(&mut w, "f");
        corrupt(&mut fs, &mut w);
        fs.flush_superblock_staged();
        fs.flush_inodes(&mut w);
        Xv6Fs::mount(&mut world(), fs.dev).unwrap_err()
    }

    fn corrupt(field: &'static str, found: u64) -> MountError {
        MountError::Corrupt { field, found }
    }

    #[test]
    fn mount_refuses_a_root_block_past_the_device() {
        let err = mount_corrupted(|fs, _| fs.inode_mut(ROOT_INO).direct[0] = 1000);
        assert_eq!(err, corrupt("inode block", 1000));
    }

    #[test]
    fn mount_refuses_an_alloc_cursor_outside_the_data_area() {
        let err = mount_corrupted(|fs, _| fs.alloc_cursor = JOURNAL_DATA);
        assert_eq!(err, corrupt("alloc cursor", JOURNAL_DATA));
        let err = mount_corrupted(|fs, _| fs.alloc_cursor = 65);
        assert_eq!(err, corrupt("alloc cursor", 65));
    }

    #[test]
    fn mount_refuses_an_indirect_pointer_past_the_device() {
        let err = mount_corrupted(|fs, _| fs.inode_mut(1).indirect = 64);
        assert_eq!(err, corrupt("inode block", 64));
    }

    #[test]
    fn mount_refuses_an_inode_larger_than_a_file() {
        let err = mount_corrupted(|fs, _| fs.inode_mut(1).size = MAX_FILE_BYTES + 1);
        assert_eq!(err, corrupt("inode size", MAX_FILE_BYTES + 1));
    }

    #[test]
    fn mount_refuses_a_root_indirect_entry_past_the_device() {
        let err = mount_corrupted(|fs, w| {
            let mut table = vec![0u8; BLOCK_SIZE];
            table[8..16].copy_from_slice(&1000u64.to_le_bytes());
            fs.dev.write(w, DATA_START + 8, &table);
            fs.inode_mut(ROOT_INO).indirect = DATA_START + 8;
        });
        assert_eq!(err, corrupt("root indirect entry", 1000));
    }

    #[test]
    fn mount_refuses_a_directory_entry_past_the_directory() {
        // The one entry is 1 + 1 + 8 bytes: "f" and its inode.
        let err = mount_corrupted(|fs, _| fs.inode_mut(ROOT_INO).size = 9);
        assert_eq!(err, corrupt("directory entry", 0));
    }

    #[test]
    fn mount_refuses_a_directory_entry_naming_no_inode() {
        for ino in [NINODES as u64, ROOT_INO] {
            let err = mount_corrupted(|fs, w| {
                fs.dir[0].1 = ino;
                fs.store_dir(w);
            });
            assert_eq!(err, corrupt("entry inode", ino));
        }
    }

    #[test]
    fn name_of_255_bytes_round_trips_through_mount() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let name = "n".repeat(255);
        let ino = fs.create(&mut w, &name);
        let fs2 = Xv6Fs::mount(&mut w, fs.dev.clone()).unwrap();
        assert_eq!(fs2.lookup(&name), Some(ino));
    }

    #[test]
    #[should_panic(expected = "file name longer than 255 bytes")]
    fn name_over_255_bytes_rejected() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        fs.create(&mut w, &"n".repeat(256));
    }

    #[test]
    #[should_panic(expected = "has no room for data")]
    fn mkfs_without_a_data_block_rejected() {
        let _ = Xv6Fs::mkfs(&mut world(), DATA_START as usize);
    }

    #[test]
    fn smallest_ramdisk_holds_one_block() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, DATA_START as usize + 1);
        assert_eq!(free_blocks(&fs), 1);
        fs.create(&mut w, "f"); // the directory takes the only data block
        assert_eq!(free_blocks(&fs), 0);
    }

    #[test]
    #[should_panic(expected = "file too large for single indirect")]
    fn write_past_the_indirect_table_rejected() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let ino = fs.create(&mut w, "big");
        let limit = MAX_FILE_BYTES; // 2 MiB + 48 KiB
        fs.write(&mut w, ino, limit - 1, b"x"); // last byte that fits
        fs.write(&mut w, ino, limit, b"x");
    }
}
