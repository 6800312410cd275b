//! The ramdisk block device server (the paper's "in-memory ram disk
//! server" behind the file system, §5.3).

use simos::World;

/// Block size in bytes (matches the FS and the paper's 4 KiB transfers).
pub const BLOCK_SIZE: usize = 4096;

/// An in-memory block store. Each request costs one pass over the block
/// (the ramdisk moving data between its store and the message), charged
/// to the [`World`]; the IPC hop itself is charged by the caller.
///
/// The store is one contiguous image from a zeroed allocation, so the
/// host pays time and memory only for the blocks that are written.
#[derive(Debug)]
pub struct BlockDev {
    data: Vec<u8>,
    /// High-water mark of [`BlockDev::write`]: every byte at or past it
    /// is still the zero the allocation started with.
    touched: usize,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
}

impl BlockDev {
    /// A ramdisk with `nblocks` zeroed blocks.
    ///
    /// # Panics
    ///
    /// Panics when `nblocks * BLOCK_SIZE` overflows `usize`.
    pub fn new(nblocks: usize) -> Self {
        let bytes = nblocks
            .checked_mul(BLOCK_SIZE)
            .expect("ramdisk size overflows usize");
        BlockDev {
            data: vec![0u8; bytes],
            touched: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.data.len() / BLOCK_SIZE
    }

    /// Whether the device has no blocks.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Byte range of block `idx`; slicing with it panics when the block
    /// is out of range (also in release, where the multiply wraps).
    fn span(idx: u64) -> std::ops::Range<usize> {
        let start = (idx as usize).saturating_mul(BLOCK_SIZE);
        start..start.saturating_add(BLOCK_SIZE)
    }

    /// Serve a block read.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range block (FS bug, not user input).
    pub fn read(&mut self, w: &mut World, idx: u64) -> &[u8] {
        w.data_pass(BLOCK_SIZE as u64, 10);
        self.reads += 1;
        &self.data[Self::span(idx)]
    }

    /// Serve a block write.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range block or a wrong-sized buffer.
    pub fn write(&mut self, w: &mut World, idx: u64, data: &[u8]) {
        assert_eq!(data.len(), BLOCK_SIZE, "partial block write");
        w.data_pass(BLOCK_SIZE as u64, 10);
        self.writes += 1;
        let span = Self::span(idx);
        self.data[span.clone()].copy_from_slice(data);
        self.touched = self.touched.max(span.end);
    }

    /// Host-side peek without cycle charge (test inspection).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range block.
    pub fn peek(&self, idx: u64) -> &[u8] {
        &self.data[Self::span(idx)]
    }
}

/// A clone is an independent device with the same contents and counters.
/// It costs the host the written prefix only: a fresh zeroed image (so
/// the untouched tail stays unmapped in both devices) plus one copy of
/// the bytes below the write high-water mark — ~1.1 MiB of the 128 MiB
/// image behind a loaded YCSB table, which is what lets an experiment
/// load the table once and fork it per cell.
impl Clone for BlockDev {
    fn clone(&self) -> Self {
        let mut data = vec![0u8; self.data.len()];
        data[..self.touched].copy_from_slice(&self.data[..self.touched]);
        BlockDev {
            data,
            touched: self.touched,
            reads: self.reads,
            writes: self.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::{CycleLedger, InvokeOpts, IpcSystem};

    struct Free;
    impl IpcSystem for Free {
        fn name(&self) -> String {
            "free".into()
        }
        fn oneway_into(&mut self, _len: usize, _opts: &InvokeOpts, _out: &mut CycleLedger) -> u64 {
            0
        }
    }

    fn world() -> World {
        World::new(Box::new(Free))
    }

    #[test]
    fn read_write_round_trip() {
        let mut w = world();
        let mut d = BlockDev::new(8);
        let mut data = vec![0u8; BLOCK_SIZE];
        data[0] = 0xaa;
        data[BLOCK_SIZE - 1] = 0x55;
        d.write(&mut w, 3, &data);
        assert_eq!(d.read(&mut w, 3), data);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn accesses_charge_cycles() {
        let mut w = world();
        let mut d = BlockDev::new(2);
        let before = w.cycles;
        let _ = d.read(&mut w, 0);
        assert!(w.cycles > before, "ramdisk pass must cost cycles");
    }

    #[test]
    #[should_panic(expected = "partial block write")]
    fn partial_write_rejected() {
        let mut w = world();
        let mut d = BlockDev::new(2);
        d.write(&mut w, 0, &[1, 2, 3]);
    }

    #[test]
    fn fresh_blocks_read_zero_and_clone_is_deep() {
        let mut w = world();
        let mut d = BlockDev::new(1 << 15);
        assert_eq!(d.len(), 1 << 15);
        for idx in [0, 16_383, 32_767] {
            assert!(d.read(&mut w, idx).iter().all(|&b| b == 0), "block {idx}");
        }
        let mut copy = d.clone();
        copy.write(&mut w, 7, &[0xee; BLOCK_SIZE]);
        assert!(d.peek(7).iter().all(|&b| b == 0), "clone shares no storage");
        assert_eq!(copy.peek(7), &[0xee; BLOCK_SIZE]);
        assert_eq!(copy.peek(6), d.peek(6));
    }

    #[test]
    fn clone_copies_the_written_prefix_only() {
        let mut w = world();
        let mut d = BlockDev::new(1 << 15);
        d.write(&mut w, 1_000, &[0xa1; BLOCK_SIZE]);
        d.write(&mut w, 3, &[0xb2; BLOCK_SIZE]); // below the mark: must not lower it
        let _ = d.read(&mut w, 3);
        assert_eq!(d.touched, 1_001 * BLOCK_SIZE);

        let mut copy = d.clone();
        assert_eq!(copy.len(), d.len());
        assert_eq!((copy.reads, copy.writes), (1, 2), "counters carried over");
        for b in 0..d.len() as u64 {
            assert_eq!(copy.peek(b), d.peek(b), "block {b}");
        }
        assert!(copy.peek(32_767).iter().all(|&b| b == 0), "zero tail");

        // Past both marks, one side at a time: neither write leaks.
        copy.write(&mut w, 20_000, &[0xc3; BLOCK_SIZE]);
        assert!(d.peek(20_000).iter().all(|&b| b == 0));
        d.write(&mut w, 20_001, &[0xd4; BLOCK_SIZE]);
        assert!(copy.peek(20_001).iter().all(|&b| b == 0));
        assert_eq!(copy.peek(20_000), &[0xc3; BLOCK_SIZE]);
        assert_eq!((d.writes, copy.writes), (3, 3));
        // A clone of the clone carries the raised mark.
        assert_eq!(copy.clone().peek(20_000), &[0xc3; BLOCK_SIZE]);
    }

    #[test]
    fn crash_image_still_recovers() {
        use crate::fs::Xv6Fs;
        let mut w = world();
        let mut fs = Xv6Fs::mkfs(&mut w, 4096);
        let ino = fs.create(&mut w, "f");
        fs.write(&mut w, ino, 0, b"old");
        fs.sync_mode = false;
        fs.write(&mut w, ino, 0, b"new");
        // The crash image is a `BlockDev::clone`: journal area included.
        let crashed = fs.sync_crash_before_install(&mut w);
        assert_eq!(
            (crashed.reads, crashed.writes),
            (fs.dev.reads, fs.dev.writes)
        );
        for b in 0..fs.dev.len() as u64 {
            assert_eq!(crashed.peek(b), fs.dev.peek(b), "block {b}");
        }
        let home = fs.dev.peek(crate::fs::DATA_START + 1).to_vec();
        let mut fs2 = Xv6Fs::mount(&mut w, crashed);
        let ino2 = fs2.lookup("f").expect("directory recovered");
        assert_eq!(fs2.read(&mut w, ino2, 0, 3), b"new", "journal replayed");
        // Recovery installed into the image only, not the crashed server's device.
        assert_eq!(fs.dev.peek(crate::fs::DATA_START + 1), home);
        assert_eq!(&home[..3], b"old");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_out_of_range_panics() {
        let _ = BlockDev::new(4).read(&mut world(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_out_of_range_panics() {
        BlockDev::new(4).write(&mut world(), 4, &[0; BLOCK_SIZE]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn peek_out_of_range_panics() {
        // A block number whose byte offset wraps `usize`: must not alias
        // a low block in release, where the multiply does not trap.
        let _ = BlockDev::new(4).peek(u64::MAX / BLOCK_SIZE as u64 + 2);
    }

    #[test]
    #[should_panic(expected = "ramdisk size overflows usize")]
    fn oversized_ramdisk_rejected() {
        let _ = BlockDev::new(usize::MAX / BLOCK_SIZE + 1);
    }
}
