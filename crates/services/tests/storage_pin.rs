//! Model-exact pin of the storage stack (`fs` over `blockdev`).
//!
//! A change meant only to make the file system cheaper on the host must
//! leave every charge, counter and device byte identical — the journal
//! area included, because crash recovery reads it. The literals below
//! were captured on the commit *before* the ramdisk became one image and
//! the write path started reusing its buffers; they move only when the
//! storage model itself is changed on purpose.

use services::blockdev::{BlockDev, BLOCK_SIZE};
use services::fs::{FsClient, Xv6Fs, JOURNAL_CAP};
use simos::{CycleLedger, InvokeOpts, IpcSystem, Phase, World};
use std::cell::Cell;
use std::rc::Rc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Logs `(msg_len, opts)` of every priced leg into a running digest and
/// prices a fixed ledger, so `w.cycles` depends on the order and the
/// arguments of the calls and on nothing else.
struct Recorder {
    /// (legs priced, digest of the log).
    log: Rc<Cell<(u64, u64)>>,
}

impl IpcSystem for Recorder {
    fn name(&self) -> String {
        "recorder".into()
    }
    fn oneway_into(&mut self, msg_len: usize, opts: &InvokeOpts, out: &mut CycleLedger) -> u64 {
        let (legs, h) = self.log.get();
        let h = fnv1a(h, &(msg_len as u64).to_le_bytes());
        let h = fnv1a(h, &[u8::from(opts.reply), opts.hops as u8]);
        self.log.set((legs + 1, h));
        out.charge(Phase::Trap, 107);
        out.charge(Phase::Transfer, msg_len as u64);
        msg_len as u64
    }
}

/// Everything the storage model counts, at one point of the script.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    ipc_legs: u64,
    ipc_digest: u64,
    cycles: u64,
    ipc_count: u64,
    payload_bytes: u64,
    other_cycles: u64,
    dev_reads: u64,
    dev_writes: u64,
    commits: u64,
    journaled_blocks: u64,
    image_digest: u64,
    /// Digest of every byte the script read back.
    read_digest: u64,
}

fn image_digest(dev: &BlockDev) -> u64 {
    (0..dev.len() as u64).fold(FNV_OFFSET, |h, b| fnv1a(h, dev.peek(b)))
}

fn pin(w: &World, log: &Cell<(u64, u64)>, fs: &Xv6Fs, read_digest: u64) -> Pin {
    let (ipc_legs, ipc_digest) = log.get();
    Pin {
        ipc_legs,
        ipc_digest,
        cycles: w.cycles,
        ipc_count: w.stats.ipc_count,
        payload_bytes: w.stats.payload_bytes,
        other_cycles: w.stats.other_cycles,
        dev_reads: fs.dev.reads,
        dev_writes: fs.dev.writes,
        commits: fs.stats.commits,
        journaled_blocks: fs.stats.journaled_blocks,
        image_digest: image_digest(&fs.dev),
        read_digest,
    }
}

fn pattern(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(31).wrapping_add(salt) % 251) as u8)
        .collect()
}

/// The scripted run: returns the pin just before the injected crash and
/// the pin after remounting the crashed device.
fn script() -> (Pin, Pin) {
    let log = Rc::new(Cell::new((0, FNV_OFFSET)));
    let mut w = World::new(Box::new(Recorder { log: log.clone() }));
    let mut rd = FNV_OFFSET;

    let mut fs = Xv6Fs::mkfs(&mut w, 4096);
    let table = FsClient::create(&mut fs, &mut w, "table.db");
    // 60 x 1018 B = 61 080 B: past the 12 direct blocks (48 KiB) into
    // the indirect table.
    for i in 0..60u64 {
        FsClient::write(&mut fs, &mut w, table, i * 1018, &pattern(1018, i as u32));
    }
    // Partial overwrite inside an installed block (read-modify-write).
    FsClient::write(&mut fs, &mut w, table, 5000, &pattern(300, 7));
    // 40 data blocks + metadata: more than JOURNAL_CAP, so two commits.
    const { assert!(160 * 1024 / BLOCK_SIZE > JOURNAL_CAP) };
    let commits = fs.stats.commits;
    FsClient::write(&mut fs, &mut w, table, 65_536, &pattern(160 * 1024, 11));
    assert_eq!(
        fs.stats.commits,
        commits + 2,
        "one write, two journal chunks"
    );

    // A second file with a hole, then a file that is written and unlinked.
    let sparse = FsClient::create(&mut fs, &mut w, "sparse");
    FsClient::write(&mut fs, &mut w, sparse, 100_000, b"tail");
    let victim = FsClient::create(&mut fs, &mut w, "victim");
    FsClient::write(&mut fs, &mut w, victim, 0, &pattern(100_000, 13));
    assert!(fs.unlink(&mut w, "victim"));

    // A batch held back from the journal, read while still staged.
    fs.sync_mode = false;
    for i in 0..5u64 {
        FsClient::write(
            &mut fs,
            &mut w,
            table,
            230_000 + i * 3000,
            &pattern(3000, 17),
        );
    }
    rd = fnv1a(rd, &FsClient::read(&mut fs, &mut w, table, 231_000, 6000)); // staged
    FsClient::sync(&mut fs, &mut w);
    fs.sync_mode = true;

    rd = fnv1a(rd, &FsClient::read(&mut fs, &mut w, sparse, 0, 100_004)); // hole + tail
    rd = fnv1a(rd, &FsClient::read(&mut fs, &mut w, table, 0, 61_080)); // contiguous run
    rd = fnv1a(rd, &FsClient::read(&mut fs, &mut w, table, 4000, 70_000)); // direct -> indirect
    rd = fnv1a(rd, &FsClient::read(&mut fs, &mut w, table, 1 << 30, 16)); // past the end

    // Crash between the commit point and the install.
    fs.sync_mode = false;
    FsClient::write(&mut fs, &mut w, table, 250_000, &pattern(9000, 19));
    let before = pin(&w, &log, &fs, rd);
    let dev = fs.sync_crash_before_install(&mut w);
    let mut fs2 = Xv6Fs::mount(&mut w, dev).expect("an xv6fs image");
    let table2 = fs2.lookup("table.db").expect("directory recovered");
    assert_eq!(
        fs2.read(&mut w, table2, 250_000, 9000),
        pattern(9000, 19),
        "journal replayed"
    );
    rd = fnv1a(rd, &fs2.read(&mut w, table2, 0, fs2.size(table2)));
    assert!(fs2.lookup("victim").is_none());
    (before, pin(&w, &log, &fs2, rd))
}

#[test]
fn storage_model_is_pinned() {
    let (before_crash, after_mount) = script();
    assert_eq!(
        before_crash,
        Pin {
            ipc_legs: 3314,
            ipc_digest: 15_089_806_252_532_361_275,
            cycles: 14_387_090,
            ipc_count: 1657,
            payload_bytes: 7_284_932,
            other_cycles: 6_747_560,
            dev_reads: 121,
            dev_writes: 1485,
            commits: 78,
            journaled_blocks: 664,
            image_digest: 17_863_657_820_255_223_258,
            read_digest: 14_499_419_056_485_518_021,
        }
    );
    assert_eq!(
        after_mount,
        Pin {
            ipc_legs: 3414,
            ipc_digest: 15_940_609_568_943_743_681,
            cycles: 15_278_432,
            ipc_count: 1707,
            payload_bytes: 7_724_484,
            other_cycles: 7_188_650,
            dev_reads: 206,
            dev_writes: 1509,
            commits: 0,
            journaled_blocks: 0,
            image_digest: 10_219_800_885_538_418_806,
            read_digest: 9_301_101_772_582_195_433,
        }
    );
}
