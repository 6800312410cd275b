//! The ramdisk block device server (the paper's "in-memory ram disk
//! server" behind the file system, §5.3).
//!
//! The store is a sparse table of shared blocks: a slot per block up to
//! the highest ever written, each still zero (no storage) or an `Arc`'d
//! 4 KiB block. A clone bumps one refcount per written block and a write
//! un-shares only the block it lands on: forking a loaded table is cheap.

use simos::World;
use std::sync::Arc;

/// Block size in bytes (matches the FS and the paper's 4 KiB transfers).
pub const BLOCK_SIZE: usize = 4096;

/// What every never-written block reads as.
pub(crate) static ZERO_BLOCK: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

/// An in-memory block store. Each request costs one pass over the block
/// (the ramdisk moving data between its store and the message), charged
/// to the [`World`]; the IPC hop itself is charged by the caller.
///
/// A clone is an independent device with the same contents and counters;
/// the host pays time and memory only for the blocks either side writes.
#[derive(Debug, Clone)]
pub struct BlockDev {
    /// Slot `i` is block `i`; `None`, or past the end, is still zero.
    blocks: Vec<Option<Arc<[u8]>>>,
    nblocks: usize,
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
    pub(crate) fn new(nblocks: usize) -> Self {
        assert!(
            nblocks.checked_mul(BLOCK_SIZE).is_some(),
            "ramdisk size overflows usize"
        );
        BlockDev {
            blocks: Vec::new(),
            nblocks,
            reads: 0,
            writes: 0,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.nblocks
    }

    /// Whether the device has no blocks.
    pub fn is_empty(&self) -> bool {
        self.nblocks == 0
    }

    /// Slot of block `idx`, checked before the table grows to hold it.
    fn slot(&self, idx: u64) -> usize {
        match usize::try_from(idx) {
            Ok(slot) if slot < self.nblocks => slot,
            _ => panic!("block {idx} out of range for {} blocks", self.nblocks),
        }
    }

    /// Serve a block read.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range block (FS bug, not user input).
    pub(crate) fn read(&mut self, w: &mut World, idx: u64) -> &[u8] {
        w.data_pass(BLOCK_SIZE as u64, 10);
        self.reads += 1;
        self.peek(idx)
    }

    /// Serve a block write.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range block or a wrong-sized buffer.
    pub(crate) fn write(&mut self, w: &mut World, idx: u64, data: &[u8]) {
        assert_eq!(data.len(), BLOCK_SIZE, "partial block write");
        w.data_pass(BLOCK_SIZE as u64, 10);
        self.writes += 1;
        let slot = self.slot(idx);
        if slot >= self.blocks.len() {
            self.blocks.resize(slot + 1, None);
        }
        // In place when no clone shares the block, else a block of our own.
        match self.blocks[slot].as_mut().and_then(Arc::get_mut) {
            Some(own) => own.copy_from_slice(data),
            None => self.blocks[slot] = Some(Arc::from(data)),
        }
    }

    /// Host-side peek without cycle charge (test inspection).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range block.
    pub fn peek(&self, idx: u64) -> &[u8] {
        match self.blocks.get(self.slot(idx)) {
            Some(Some(block)) => block,
            _ => &ZERO_BLOCK,
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

    /// FNV-1a over the whole image, as `tests/storage_pin.rs` takes it.
    fn image_digest(dev: &BlockDev) -> u64 {
        (0..dev.len() as u64).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            dev.peek(b).iter().fold(h, |h, &byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// Whether slot `k` is one allocation on both sides.
    fn shared(a: &BlockDev, b: &BlockDev, k: usize) -> bool {
        match (&a.blocks[k], &b.blocks[k]) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    #[test]
    fn a_fork_shares_every_block_until_it_is_written() {
        let mut w = world();
        let mut d = BlockDev::new(1 << 11);
        d.write(&mut w, 1_000, &[0xa1; BLOCK_SIZE]);
        d.write(&mut w, 3, &[0xb2; BLOCK_SIZE]);
        let _ = d.read(&mut w, 3);

        let mut copy = d.clone();
        assert_eq!(copy.len(), d.len());
        assert_eq!((copy.reads, copy.writes), (1, 2), "counters carried over");
        assert_eq!(copy.blocks.len(), 1_001);
        for (k, slot) in d.blocks.iter().enumerate() {
            assert_eq!(slot.is_some(), k == 3 || k == 1_000, "slot {k}");
            assert_eq!(shared(&d, &copy, k), slot.is_some(), "slot {k}");
        }
        let digest = image_digest(&d);
        assert_eq!(image_digest(&copy), digest);

        // A write on the fork un-shares that block only and leaves the origin alone.
        copy.write(&mut w, 3, &[0xc3; BLOCK_SIZE]);
        assert!(!shared(&d, &copy, 3) && shared(&d, &copy, 1_000));
        assert_eq!(d.peek(3), &[0xb2; BLOCK_SIZE]);
        assert_eq!(image_digest(&d), digest, "the fork wrote its origin");
        // A second write to it is in place: the block is the fork's own now.
        let own = Arc::as_ptr(copy.blocks[3].as_ref().unwrap());
        copy.write(&mut w, 3, &[0xc4; BLOCK_SIZE]);
        assert_eq!(Arc::as_ptr(copy.blocks[3].as_ref().unwrap()), own);
        assert_eq!(copy.peek(3), &[0xc4; BLOCK_SIZE]);

        // The same from the origin's side, on the other block and past both tables.
        let fork_digest = image_digest(&copy);
        d.write(&mut w, 1_000, &[0xd5; BLOCK_SIZE]);
        d.write(&mut w, 2_000, &[0xe6; BLOCK_SIZE]);
        assert!(!shared(&d, &copy, 1_000));
        assert_eq!(copy.peek(1_000), &[0xa1; BLOCK_SIZE]);
        assert!(copy.peek(2_000).iter().all(|&b| b == 0));
        assert_eq!(
            image_digest(&copy),
            fork_digest,
            "the origin wrote its fork"
        );
        assert_eq!((d.writes, copy.writes), (4, 4));
        // A fork of the fork carries what the fork wrote.
        assert_eq!(copy.clone().peek(3), &[0xc4; BLOCK_SIZE]);
    }

    #[test]
    fn a_high_block_costs_one_block_not_the_prefix() {
        let mut w = world();
        let mut d = BlockDev::new(1 << 15);
        let last = d.len() as u64 - 1;
        d.write(&mut w, last, &[0x77; BLOCK_SIZE]);
        assert_eq!(d.blocks.iter().flatten().count(), 1, "blocks allocated");
        assert_eq!(d.peek(last), &[0x77; BLOCK_SIZE]);
        for b in 0..last {
            assert!(std::ptr::eq(d.peek(b), &ZERO_BLOCK[..]), "block {b}");
        }
    }

    #[test]
    fn write_past_the_end_panics_and_allocates_nothing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut w = world();
        let mut d = BlockDev::new(4);
        // The first block past the end, one whose byte offset wraps
        // `usize`, and the index a wrapped subtraction would produce.
        for idx in [4, u64::MAX / BLOCK_SIZE as u64 + 2, u64::MAX] {
            let panic = catch_unwind(AssertUnwindSafe(|| {
                d.write(&mut w, idx, &[1; BLOCK_SIZE]);
            }))
            .expect_err("a write past the end");
            let msg = panic.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("out of range"), "{msg}");
            assert_eq!(d.blocks.capacity(), 0, "block {idx} grew the table");
        }
        d.write(&mut w, 3, &[1; BLOCK_SIZE]);
        assert_eq!(d.blocks.len(), 4);
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
        let mut fs2 = Xv6Fs::mount(&mut w, crashed).unwrap();
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
