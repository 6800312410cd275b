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

use crate::blockdev::{BlockDev, BLOCK_SIZE};
use simos::World;
use std::collections::BTreeMap;

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
/// Block allocation bitmap (2 blocks cover 64 Ki blocks = 256 MiB).
const BITMAP_START: u64 = 38;
const BITMAP_BLOCKS: u64 = 2;
/// First data block.
pub const DATA_START: u64 = 40;
const NDIRECT: usize = 12;
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
        let mut direct = [0u64; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = u64::from_le_bytes(b[16 + 8 * i..24 + 8 * i].try_into().unwrap());
        }
        Inode {
            used: b[0] != 0,
            size: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            direct,
            indirect: u64::from_le_bytes(b[16 + 8 * NDIRECT..24 + 8 * NDIRECT].try_into().unwrap()),
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

/// The file system server. See the [module docs](self).
#[derive(Debug)]
pub struct Xv6Fs {
    /// The block device server behind this FS (public for inspection).
    pub dev: BlockDev,
    inodes: Vec<Inode>,
    dir: Vec<(String, u64)>,
    /// In-memory mirror of the on-disk block bitmap (bit = block used).
    bitmap: Vec<u8>,
    alloc_cursor: u64,
    staged: BTreeMap<u64, Vec<u8>>,
    /// Commit after every operation (the paper's Sqlite3 runs journaled).
    pub sync_mode: bool,
    /// Statistics.
    pub stats: FsStats,
}

impl Xv6Fs {
    /// Format a fresh ramdisk of `nblocks` and mount it.
    pub fn mkfs(w: &mut World, nblocks: usize) -> Self {
        let mut fs = Xv6Fs {
            dev: BlockDev::new(nblocks),
            inodes: vec![Inode::default(); NINODES],
            dir: Vec::new(),
            bitmap: vec![0; (BITMAP_BLOCKS as usize) * BLOCK_SIZE],
            alloc_cursor: DATA_START,
            staged: BTreeMap::new(),
            sync_mode: true,
            stats: FsStats::default(),
        };
        // Metadata blocks are permanently allocated.
        for b in 0..DATA_START {
            fs.bitmap_set(b, true);
        }
        // Root directory inode.
        fs.inodes[ROOT_INO as usize].used = true;
        fs.flush_superblock(w);
        fs.flush_inodes(w);
        fs.flush_bitmap_staged();
        fs.sync(w);
        fs.clear_journal(w);
        fs
    }

    /// Mount an existing device, running journal recovery first.
    pub fn mount(w: &mut World, dev: BlockDev) -> Self {
        let mut fs = Xv6Fs {
            dev,
            inodes: Vec::new(),
            dir: Vec::new(),
            bitmap: Vec::new(),
            alloc_cursor: DATA_START,
            staged: BTreeMap::new(),
            sync_mode: true,
            stats: FsStats::default(),
        };
        fs.recover(w);
        // Superblock.
        let sb = fs.dev_read(w, SUPER_BLOCK);
        let magic = u64::from_le_bytes(sb[0..8].try_into().unwrap());
        assert_eq!(magic, MAGIC, "not an xv6fs device");
        fs.alloc_cursor = u64::from_le_bytes(sb[8..16].try_into().unwrap());
        // Block bitmap.
        let mut bitmap = Vec::with_capacity((BITMAP_BLOCKS as usize) * BLOCK_SIZE);
        for b in 0..BITMAP_BLOCKS {
            bitmap.extend(fs.dev_read(w, BITMAP_START + b));
        }
        fs.bitmap = bitmap;
        // Inode table.
        let mut inodes = Vec::with_capacity(NINODES);
        for b in 0..INODE_BLOCKS {
            let blk = fs.dev_read(w, INODE_START + b);
            for i in 0..(BLOCK_SIZE / INODE_BYTES) {
                inodes.push(Inode::from_bytes(
                    &blk[i * INODE_BYTES..(i + 1) * INODE_BYTES],
                ));
            }
        }
        fs.inodes = inodes;
        // Root directory.
        fs.dir = fs.load_dir(w);
        fs
    }

    // ---- block server boundary (IPC charged here) -----------------------

    fn dev_read(&mut self, w: &mut World, blk: u64) -> Vec<u8> {
        w.ipc_roundtrip(64, BLOCK_SIZE as u64);
        self.dev.read(w, blk)
    }

    fn dev_write(&mut self, w: &mut World, blk: u64, data: &[u8]) {
        w.ipc_roundtrip(64 + BLOCK_SIZE as u64, 16);
        self.dev.write(w, blk, data);
    }

    // ---- journal ---------------------------------------------------------

    fn clear_journal(&mut self, w: &mut World) {
        self.dev_write(w, JOURNAL_HEADER, &vec![0u8; BLOCK_SIZE]);
    }

    fn recover(&mut self, w: &mut World) {
        let hdr = self.dev_read(w, JOURNAL_HEADER);
        let n = u64::from_le_bytes(hdr[0..8].try_into().unwrap()) as usize;
        if n == 0 || n > JOURNAL_CAP {
            return;
        }
        for i in 0..n {
            let target = u64::from_le_bytes(hdr[8 + 8 * i..16 + 8 * i].try_into().unwrap());
            let data = self.dev_read(w, JOURNAL_DATA + i as u64);
            self.dev_write(w, target, &data);
        }
        self.clear_journal(w);
    }

    /// Stage a whole-block write into the current transaction.
    fn stage(&mut self, blk: u64, data: Vec<u8>) {
        debug_assert_eq!(data.len(), BLOCK_SIZE);
        self.staged.insert(blk, data);
    }

    /// Commit the staged transaction: log, commit point, install, clear.
    pub fn sync(&mut self, w: &mut World) {
        if self.staged.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.staged);
        // Large transactions commit in journal-capacity chunks.
        let entries: Vec<(u64, Vec<u8>)> = staged.into_iter().collect();
        for chunk in entries.chunks(JOURNAL_CAP) {
            // 1. Log.
            for (i, (_, data)) in chunk.iter().enumerate() {
                self.dev_write(w, JOURNAL_DATA + i as u64, data);
            }
            // 2. Commit point.
            let mut hdr = vec![0u8; BLOCK_SIZE];
            hdr[0..8].copy_from_slice(&(chunk.len() as u64).to_le_bytes());
            for (i, (blk, _)) in chunk.iter().enumerate() {
                hdr[8 + 8 * i..16 + 8 * i].copy_from_slice(&blk.to_le_bytes());
            }
            self.dev_write(w, JOURNAL_HEADER, &hdr);
            // 3. Install.
            for (blk, data) in chunk {
                self.dev_write(w, *blk, data);
            }
            // 4. Clear.
            self.clear_journal(w);
            self.stats.commits += 1;
            self.stats.journaled_blocks += chunk.len() as u64;
        }
    }

    /// Failure injection: run steps 1–2 of [`Xv6Fs::sync`] (log + commit
    /// point) and then "crash" — staged data reaches only the journal.
    /// A subsequent [`Xv6Fs::mount`] must recover it.
    pub fn sync_crash_before_install(&mut self, w: &mut World) -> BlockDev {
        let staged = std::mem::take(&mut self.staged);
        let entries: Vec<(u64, Vec<u8>)> = staged.into_iter().collect();
        let chunk = &entries[..entries.len().min(JOURNAL_CAP)];
        for (i, (_, data)) in chunk.iter().enumerate() {
            self.dev_write(w, JOURNAL_DATA + i as u64, data);
        }
        let mut hdr = vec![0u8; BLOCK_SIZE];
        hdr[0..8].copy_from_slice(&(chunk.len() as u64).to_le_bytes());
        for (i, (blk, _)) in chunk.iter().enumerate() {
            hdr[8 + 8 * i..16 + 8 * i].copy_from_slice(&blk.to_le_bytes());
        }
        self.dev_write(w, JOURNAL_HEADER, &hdr);
        // Crash: hand the raw device to the caller.
        self.dev.clone()
    }

    // ---- metadata persistence -------------------------------------------

    fn flush_superblock(&mut self, w: &mut World) {
        let mut sb = vec![0u8; BLOCK_SIZE];
        sb[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        sb[8..16].copy_from_slice(&self.alloc_cursor.to_le_bytes());
        self.stage(SUPER_BLOCK, sb);
        if self.sync_mode {
            self.sync(w);
        }
    }

    fn flush_inodes(&mut self, w: &mut World) {
        for b in 0..INODE_BLOCKS {
            let mut blk = vec![0u8; BLOCK_SIZE];
            for i in 0..(BLOCK_SIZE / INODE_BYTES) {
                let ino = b as usize * (BLOCK_SIZE / INODE_BYTES) + i;
                blk[i * INODE_BYTES..(i + 1) * INODE_BYTES]
                    .copy_from_slice(&self.inodes[ino].to_bytes());
            }
            self.stage(INODE_START + b, blk);
        }
        if self.sync_mode {
            self.sync(w);
        }
    }

    fn load_dir(&mut self, w: &mut World) -> Vec<(String, u64)> {
        let size = self.inodes[ROOT_INO as usize].size;
        let raw = self.read_inode(w, ROOT_INO, 0, size);
        let mut dir = Vec::new();
        let mut off = 0;
        while off < raw.len() {
            let nlen = raw[off] as usize;
            let name = String::from_utf8_lossy(&raw[off + 1..off + 1 + nlen]).into_owned();
            let ino = u64::from_le_bytes(raw[off + 1 + nlen..off + 9 + nlen].try_into().unwrap());
            dir.push((name, ino));
            off += 9 + nlen;
        }
        dir
    }

    fn store_dir(&mut self, w: &mut World) {
        let mut raw = Vec::new();
        for (name, ino) in self.dir.clone() {
            raw.push(name.len() as u8);
            raw.extend_from_slice(name.as_bytes());
            raw.extend_from_slice(&ino.to_le_bytes());
        }
        // The directory may shrink (unlink): reset its size first.
        self.inodes[ROOT_INO as usize].size = 0;
        self.write(w, ROOT_INO, 0, &raw);
        // An emptied directory still needs its metadata journaled.
        if raw.is_empty() {
            self.flush_inodes_staged();
            if self.sync_mode {
                self.sync(w);
            }
        }
    }

    // ---- block mapping ----------------------------------------------------

    /// Map file block index -> device block, allocating when `alloc`.
    fn bmap(&mut self, w: &mut World, ino: u64, fbn: u64, alloc: bool) -> u64 {
        let per_block = (BLOCK_SIZE / 8) as u64;
        if fbn < NDIRECT as u64 {
            let cur = self.inodes[ino as usize].direct[fbn as usize];
            if cur != 0 || !alloc {
                return cur;
            }
            let blk = self.alloc_block();
            self.inodes[ino as usize].direct[fbn as usize] = blk;
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
            self.inodes[ino as usize].indirect = itable_blk;
            self.stage(itable_blk, vec![0u8; BLOCK_SIZE]);
        }
        let mut table = self
            .staged
            .get(&itable_blk)
            .cloned()
            .unwrap_or_else(|| self.dev.peek(itable_blk).to_vec());
        let slot = idx as usize * 8;
        let cur = u64::from_le_bytes(table[slot..slot + 8].try_into().unwrap());
        if cur != 0 || !alloc {
            let _ = w;
            return cur;
        }
        let blk = self.alloc_block();
        table[slot..slot + 8].copy_from_slice(&blk.to_le_bytes());
        self.stage(itable_blk, table);
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
        for b in 0..BITMAP_BLOCKS {
            let start = (b as usize) * BLOCK_SIZE;
            self.stage(
                BITMAP_START + b,
                self.bitmap[start..start + BLOCK_SIZE].to_vec(),
            );
        }
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
    /// Panics when the inode table is exhausted or the name is taken.
    pub fn create(&mut self, w: &mut World, name: &str) -> u64 {
        assert!(self.lookup(name).is_none(), "file exists: {name}");
        let ino = self
            .inodes
            .iter()
            .position(|i| !i.used)
            .expect("inode table full") as u64;
        self.inodes[ino as usize].used = true;
        self.inodes[ino as usize].size = 0;
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
        self.inodes[ino as usize] = Inode::default();
        self.dir.retain(|(n, _)| n != name);
        self.store_dir(w);
        self.flush_inodes_staged();
        self.flush_bitmap_staged();
        if self.sync_mode {
            self.sync(w);
        }
        true
    }

    /// Count of free data blocks (bitmap census, for tests/tools).
    pub fn free_blocks(&self) -> u64 {
        let limit = (self.dev.len() as u64).min(self.bitmap.len() as u64 * 8);
        (DATA_START..limit).filter(|&b| !self.bitmap_get(b)).count() as u64
    }

    /// Look up a file by name.
    pub fn lookup(&self, name: &str) -> Option<u64> {
        self.dir.iter().find(|(n, _)| n == name).map(|(_, i)| *i)
    }

    /// List the root directory: (name, inode, size) per file.
    pub fn list(&self) -> Vec<(String, u64, u64)> {
        self.dir
            .iter()
            .map(|(n, i)| (n.clone(), *i, self.inodes[*i as usize].size))
            .collect()
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
        let end = (off + len).min(size);
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
            let blk = self.bmap(w, ino, fbn, false);
            spans.push(Span { blk, boff, take });
            pos += take as u64;
        }
        let mut out = Vec::with_capacity(len as usize);
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
    /// `sync_mode`, otherwise at the next [`Xv6Fs::sync`]).
    pub fn write(&mut self, w: &mut World, ino: u64, off: u64, data: &[u8]) {
        w.compute(2500); // inode lock, bmap/alloc, log bookkeeping
        let mut pos = 0usize;
        while pos < data.len() {
            let fpos = off + pos as u64;
            let fbn = fpos / BLOCK_SIZE as u64;
            let boff = (fpos % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - boff).min(data.len() - pos);
            let blk = self.bmap(w, ino, fbn, true);
            let mut buf = if let Some(st) = self.staged.get(&blk) {
                st.clone()
            } else if take == BLOCK_SIZE {
                vec![0u8; BLOCK_SIZE]
            } else {
                // Partial block: read-modify-write.
                self.dev_read(w, blk)
            };
            buf[boff..boff + take].copy_from_slice(&data[pos..pos + take]);
            self.stage(blk, buf);
            pos += take;
        }
        let ino_ref = &mut self.inodes[ino as usize];
        ino_ref.size = ino_ref.size.max(off + data.len() as u64);
        self.flush_inodes_staged();
        self.flush_superblock_staged();
        self.flush_bitmap_staged();
        if self.sync_mode {
            self.sync(w);
        }
    }

    fn flush_inodes_staged(&mut self) {
        for b in 0..INODE_BLOCKS {
            let mut blk = vec![0u8; BLOCK_SIZE];
            for i in 0..(BLOCK_SIZE / INODE_BYTES) {
                let ino = b as usize * (BLOCK_SIZE / INODE_BYTES) + i;
                blk[i * INODE_BYTES..(i + 1) * INODE_BYTES]
                    .copy_from_slice(&self.inodes[ino].to_bytes());
            }
            self.stage(INODE_START + b, blk);
        }
    }

    fn flush_superblock_staged(&mut self) {
        let mut sb = vec![0u8; BLOCK_SIZE];
        sb[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        sb[8..16].copy_from_slice(&self.alloc_cursor.to_le_bytes());
        self.stage(SUPER_BLOCK, sb);
    }
}

/// Client-side handle: adds the client→fs IPC hop to every call
/// (the paper's applications talk to the FS *server*, not a library).
#[derive(Debug)]
pub struct FsClient;

impl FsClient {
    /// Client read: VFS layer + request + data-carrying reply.
    pub fn read(fs: &mut Xv6Fs, w: &mut World, ino: u64, off: u64, len: u64) -> Vec<u8> {
        w.compute(1500); // client VFS: fd table, offset bookkeeping
        w.ipc_roundtrip(64, len);
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
    fn list_reports_names_and_sizes() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let a = fs.create(&mut w, "a.txt");
        fs.write(&mut w, a, 0, &[1u8; 10]);
        fs.create(&mut w, "b.txt");
        let mut names: Vec<(String, u64)> = fs
            .list()
            .into_iter()
            .map(|(n, _, size)| (n, size))
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![("a.txt".to_string(), 10), ("b.txt".to_string(), 0)]
        );
    }

    #[test]
    fn persistence_across_mount() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let ino = fs.create(&mut w, "persist");
        fs.write(&mut w, ino, 0, b"survives remount");
        let dev = fs.dev.clone();
        let mut fs2 = Xv6Fs::mount(&mut w, dev);
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
        let mut fs2 = Xv6Fs::mount(&mut w, dev);
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
        let mut fs2 = Xv6Fs::mount(&mut w, dev);
        let ino2 = fs2.lookup("f").unwrap();
        assert_eq!(fs2.read(&mut w, ino2, 0, 3), b"old", "atomicity");
    }

    #[test]
    fn unlink_frees_blocks_for_reuse() {
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let free0 = fs.free_blocks();
        let ino = fs.create(&mut w, "victim");
        fs.write(&mut w, ino, 0, &vec![7u8; 100_000]); // forces indirect
        let free_after_write = fs.free_blocks();
        assert!(free_after_write < free0);
        assert!(fs.unlink(&mut w, "victim"));
        assert!(fs.lookup("victim").is_none());
        assert!(
            fs.free_blocks() > free_after_write + 20,
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
        let mut fs2 = Xv6Fs::mount(&mut w, dev);
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
}
