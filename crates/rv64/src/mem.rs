//! Physical memory and the tiny MMIO console/exit device.

use crate::trap::{Cause, Trap};

/// Base physical address of DRAM (matches common RISC-V platforms).
pub const DRAM_BASE: u64 = 0x8000_0000;

/// MMIO: writing a byte here prints it to the console buffer.
pub const MMIO_PUTCHAR: u64 = 0x1000_0000;
/// MMIO: writing a doubleword here requests machine exit with that code.
pub const MMIO_EXIT: u64 = 0x1000_0008;

/// Flat physical memory with a console/exit MMIO window.
///
/// Data is stored little-endian, as on real RISC-V.
#[derive(Debug)]
pub struct Memory {
    dram: Vec<u8>,
    /// Characters written to [`MMIO_PUTCHAR`].
    pub console: Vec<u8>,
    /// Exit code written to [`MMIO_EXIT`], if any.
    pub exit_code: Option<u64>,
}

impl Memory {
    /// Allocate `size` bytes of zeroed DRAM at [`DRAM_BASE`].
    pub fn new(size: usize) -> Self {
        Memory {
            dram: vec![0; size],
            console: Vec::new(),
            exit_code: None,
        }
    }

    /// Whether `pa..pa+len` lies entirely inside DRAM (a range that
    /// wraps the address space does not).
    #[inline]
    pub(crate) fn in_dram(&self, pa: u64, len: u64) -> bool {
        pa >= DRAM_BASE
            && pa
                .checked_add(len)
                .is_some_and(|end| end <= DRAM_BASE + self.dram.len() as u64)
    }

    #[inline]
    fn offset(&self, pa: u64, len: u64, store: bool) -> Result<usize, Trap> {
        if self.in_dram(pa, len) {
            Ok((pa - DRAM_BASE) as usize)
        } else {
            let cause = if store {
                Cause::StoreAccessFault
            } else {
                Cause::LoadAccessFault
            };
            Err(Trap::new(cause, pa))
        }
    }

    /// Read `size` (1/2/4/8) bytes at physical address `pa`.
    ///
    /// # Errors
    ///
    /// Returns a load access fault if the range is outside DRAM.
    #[inline]
    pub fn read(&self, pa: u64, size: u64) -> Result<u64, Trap> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let off = self.offset(pa, size, false)?;
        let mut bytes = [0u8; 8];
        bytes[..size as usize].copy_from_slice(&self.dram[off..off + size as usize]);
        Ok(u64::from_le_bytes(bytes))
    }

    /// Write `size` (1/2/4/8) bytes at physical address `pa`.
    ///
    /// Writes to the MMIO window update the console / exit code instead of
    /// DRAM.
    ///
    /// # Errors
    ///
    /// Returns a store access fault if the range is neither DRAM nor MMIO.
    #[inline]
    pub fn write(&mut self, pa: u64, size: u64, value: u64) -> Result<(), Trap> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        if pa == MMIO_PUTCHAR {
            self.console.push(value as u8);
            return Ok(());
        }
        if pa == MMIO_EXIT {
            self.exit_code = Some(value);
            return Ok(());
        }
        let off = self.offset(pa, size, true)?;
        self.dram[off..off + size as usize].copy_from_slice(&value.to_le_bytes()[..size as usize]);
        Ok(())
    }

    /// Bulk-copy `bytes` into DRAM at `pa` (loader path; not cycle-charged).
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside DRAM — loading is a host-side
    /// operation and a bad load address is a harness bug.
    pub fn load_bytes(&mut self, pa: u64, bytes: &[u8]) {
        assert!(
            self.in_dram(pa, bytes.len() as u64),
            "load_bytes outside DRAM: pa={pa:#x} len={}",
            bytes.len()
        );
        let off = (pa - DRAM_BASE) as usize;
        self.dram[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Bulk-read `len` bytes from DRAM at `pa` (inspection path).
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside DRAM.
    pub fn read_bytes(&self, pa: u64, len: usize) -> Vec<u8> {
        assert!(self.in_dram(pa, len as u64));
        let off = (pa - DRAM_BASE) as usize;
        self.dram[off..off + len].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip_all_sizes() {
        let mut m = Memory::new(4096);
        for (size, val) in [
            (1u64, 0xabu64),
            (2, 0xbeef),
            (4, 0xdead_beef),
            (8, 0x0123_4567_89ab_cdef),
        ] {
            m.write(DRAM_BASE + 64, size, val).unwrap();
            assert_eq!(m.read(DRAM_BASE + 64, size).unwrap(), val);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(4096);
        m.write(DRAM_BASE, 4, 0x0403_0201).unwrap();
        assert_eq!(m.read(DRAM_BASE, 1).unwrap(), 0x01);
        assert_eq!(m.read(DRAM_BASE + 3, 1).unwrap(), 0x04);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = Memory::new(4096);
        assert!(m.read(0x0, 8).is_err());
        assert!(m.write(DRAM_BASE + 4095, 8, 0).is_err());
        assert_eq!(m.read(0x10, 4).unwrap_err().cause, Cause::LoadAccessFault);
    }

    #[test]
    fn range_wrapping_the_address_space_is_outside_dram() {
        let mut m = Memory::new(4096);
        assert!(!m.in_dram(u64::MAX - 7, 8));
        assert!(!m.in_dram(DRAM_BASE, u64::MAX));
        assert_eq!(
            m.read(u64::MAX - 7, 8).unwrap_err().cause,
            Cause::LoadAccessFault
        );
        assert_eq!(
            m.write(u64::MAX - 7, 8, 0).unwrap_err().cause,
            Cause::StoreAccessFault
        );
        assert!(m.in_dram(DRAM_BASE + 4088, 8), "last doubleword is inside");
    }

    #[test]
    fn mmio_console_and_exit() {
        let mut m = Memory::new(4096);
        for b in b"hi" {
            m.write(MMIO_PUTCHAR, 1, *b as u64).unwrap();
        }
        m.write(MMIO_EXIT, 8, 7).unwrap();
        assert_eq!(m.console, b"hi");
        assert_eq!(m.exit_code, Some(7));
    }

    #[test]
    fn load_bytes_round_trip() {
        let mut m = Memory::new(4096);
        m.load_bytes(DRAM_BASE + 100, &[1, 2, 3]);
        assert_eq!(m.read_bytes(DRAM_BASE + 100, 3), vec![1, 2, 3]);
    }
}
