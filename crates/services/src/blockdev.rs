//! The ramdisk block device server (the paper's "in-memory ram disk
//! server" behind the file system, §5.3).

use simos::World;

/// Block size in bytes (matches the FS and the paper's 4 KiB transfers).
pub const BLOCK_SIZE: usize = 4096;

/// An in-memory block store. Each request costs one pass over the block
/// (the ramdisk moving data between its store and the message), charged
/// to the [`World`]; the IPC hop itself is charged by the caller.
#[derive(Debug, Clone)]
pub struct BlockDev {
    blocks: Vec<Vec<u8>>,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
}

impl BlockDev {
    /// A ramdisk with `nblocks` zeroed blocks.
    pub fn new(nblocks: usize) -> Self {
        BlockDev {
            blocks: vec![vec![0u8; BLOCK_SIZE]; nblocks],
            reads: 0,
            writes: 0,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the device has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Serve a block read.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range block (FS bug, not user input).
    pub fn read(&mut self, w: &mut World, idx: u64) -> Vec<u8> {
        w.data_pass(BLOCK_SIZE as u64, 10);
        self.reads += 1;
        self.blocks[idx as usize].clone()
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
        self.blocks[idx as usize].copy_from_slice(data);
    }

    /// Host-side peek without cycle charge (test inspection).
    pub fn peek(&self, idx: u64) -> &[u8] {
        &self.blocks[idx as usize]
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
}
