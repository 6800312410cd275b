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
#[derive(Debug, Clone)]
pub struct BlockDev {
    data: Vec<u8>,
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
        self.data[Self::span(idx)].copy_from_slice(data);
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
