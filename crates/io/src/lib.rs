//! Storage abstraction layer for the learned-LSM testbed.
//!
//! The paper's experiments run against a 2 TB NVMe SSD through `pread`. To
//! make the reproduction deterministic and machine-independent we model the
//! device instead of requiring the hardware: every experiment runs against a
//! [`Storage`] implementation, and three are provided:
//!
//! * [`FileStorage`] — real files on a local filesystem (functional parity,
//!   used by integration tests and anyone who wants to run on a real disk).
//! * [`MemStorage`] — plain in-memory files (fast unit tests).
//! * [`SimStorage`] — in-memory files plus a *deterministic I/O cost model*:
//!   each read/write is charged in 4096-byte blocks against a virtual clock,
//!   calibrated so that one random block read costs ~2.1 µs, matching Table 1
//!   of the paper ("Disk I/O 2.10–2.16 us/op"). All experiments report
//!   `cpu time (measured) + I/O time (modeled)`, which reproduces the paper's
//!   latency *shapes* exactly and is immune to page-cache noise.
//!
//! The traits intentionally mirror LevelDB's `Env`/`RandomAccessFile`/
//! `WritableFile` split because the testbed is a LevelDB-style system.

pub mod cost;
pub mod crash;
pub mod fault;
pub mod file;
pub mod mem;
pub mod prefix;
pub mod sim;
pub mod stats;

use std::io;
use std::sync::Arc;

pub use cost::{CostModel, DEFAULT_BLOCK_SIZE};
pub use crash::{CrashControl, CrashStorage};
pub use fault::{FaultControl, FaultStorage};
pub use file::FileStorage;
pub use mem::MemStorage;
pub use prefix::PrefixedStorage;
pub use sim::SimStorage;
pub use stats::{IoStats, IoStatsSnapshot};

/// A file that supports positional reads (`pread` semantics).
///
/// Implementations must be safe to share across threads; the LSM engine reads
/// SSTables concurrently from lookups and compactions.
pub trait RandomAccessFile: Send + Sync {
    /// Read up to `buf.len()` bytes starting at `offset`, returning the number
    /// of bytes read. Short reads only happen at end-of-file.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Total length of the file in bytes.
    fn len(&self) -> u64;

    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read exactly `buf.len()` bytes at `offset`, failing on EOF.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let n = self.read_at(offset, buf)?;
        if n != buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "short read: wanted {} bytes at offset {offset}, got {n}",
                    buf.len()
                ),
            ));
        }
        Ok(())
    }

    /// Read exactly the summed length of `bufs` at `offset`, filling the
    /// buffers in order: one device call, recorded in [`IoStats`] exactly
    /// as one [`RandomAccessFile::read_exact_at`] over the whole range.
    /// Fails with `UnexpectedEof` when the range runs past the end.
    ///
    /// The default stages the range in one buffer and scatters it, so
    /// every wrapper stays correct unchanged; the in-memory backends
    /// override it to copy straight from the file bytes.
    fn read_exact_vectored_at(&self, offset: u64, bufs: &mut [&mut [u8]]) -> io::Result<()> {
        let mut staged = vec![0u8; bufs.iter().map(|b| b.len()).sum()];
        self.read_exact_at(offset, &mut staged)?;
        scatter(&staged, 0, bufs).map(drop)
    }
}

/// Copy `data[offset..]` into `bufs` in order, returning the bytes copied;
/// `UnexpectedEof` (and nothing copied) when `data` ends first.
pub(crate) fn scatter(data: &[u8], offset: u64, bufs: &mut [&mut [u8]]) -> io::Result<usize> {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let start = (offset as usize).min(data.len());
    let Some(mut rest) = data[start..].get(..total) else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "short read: wanted {total} bytes at offset {offset}, file has {}",
                data.len()
            ),
        ));
    };
    for buf in bufs.iter_mut() {
        let (head, tail) = rest.split_at(buf.len());
        buf.copy_from_slice(head);
        rest = tail;
    }
    Ok(total)
}

/// An append-only output file, as produced by flushes and compactions.
pub trait WritableFile: Send + Sync {
    /// Append `data` to the end of the file.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;

    /// Flush buffered data to the underlying medium.
    fn sync(&mut self) -> io::Result<()>;

    /// Number of bytes appended so far.
    fn written(&self) -> u64;
}

/// A named-file store: the minimal `Env` surface the LSM engine needs.
pub trait Storage: Send + Sync {
    /// Open an existing file for positional reads.
    fn open_read(&self, name: &str) -> io::Result<Arc<dyn RandomAccessFile>>;

    /// Create (or truncate) a file for appending.
    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>>;

    /// Delete a file. Deleting a missing file is an error.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Whether a file with this name exists.
    fn exists(&self, name: &str) -> bool;

    /// List all file names in the store, in unspecified order.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Size of the named file in bytes.
    fn size_of(&self, name: &str) -> io::Result<u64>;

    /// The I/O statistics sink shared by all files of this storage.
    fn stats(&self) -> &IoStats;
}

/// Convenience: read a whole file into memory.
pub fn read_all(storage: &dyn Storage, name: &str) -> io::Result<Vec<u8>> {
    let f = storage.open_read(name)?;
    let mut buf = vec![0u8; f.len() as usize];
    f.read_exact_at(0, &mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_storage(s: &dyn Storage) {
        assert!(!s.exists("a"));
        {
            let mut w = s.create("a").unwrap();
            w.append(b"hello ").unwrap();
            w.append(b"world").unwrap();
            assert_eq!(w.written(), 11);
            w.sync().unwrap();
        }
        assert!(s.exists("a"));
        assert_eq!(s.size_of("a").unwrap(), 11);

        let r = s.open_read("a").unwrap();
        assert_eq!(r.len(), 11);
        let mut buf = [0u8; 5];
        r.read_exact_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");

        // Short read at EOF.
        let mut big = [0u8; 32];
        let n = r.read_at(6, &mut big).unwrap();
        assert_eq!(n, 5);

        // read_exact past EOF errors.
        let mut big = [0u8; 32];
        assert!(r.read_exact_at(6, &mut big).is_err());

        let listed = s.list().unwrap();
        assert!(listed.contains(&"a".to_string()));

        s.remove("a").unwrap();
        assert!(!s.exists("a"));
        assert!(s.remove("a").is_err());
        assert!(s.open_read("a").is_err());
    }

    #[test]
    fn mem_storage_contract() {
        exercise_storage(&MemStorage::new());
    }

    #[test]
    fn sim_storage_contract() {
        exercise_storage(&SimStorage::new(CostModel::default()));
    }

    #[test]
    fn file_storage_contract() {
        let dir = tempfile::tempdir().unwrap();
        exercise_storage(&FileStorage::new(dir.path()).unwrap());
    }

    /// `read_exact_vectored_at` against one `read_exact_at` over the same
    /// range: the same bytes and the same `IoStats` delta (one call, the
    /// same blocks, the same modeled ns); past EOF it fails.
    fn exercise_vectored(s: &dyn Storage) {
        let payload: Vec<u8> = (0..3 * 4096 + 700).map(|i| (i * 7 % 251) as u8).collect();
        s.create("v").unwrap().append(&payload).unwrap();
        let r = s.open_read("v").unwrap();
        let cases: [(u64, &[usize]); 5] = [
            (0, &[4096, 4096]),
            (100, &[3996, 4096, 10]),
            (4000, &[1, 0, 95, 4096, 4096, 500]),
            (3 * 4096, &[700]),
            (77, &[]),
        ];
        for (offset, lens) in cases {
            let total: usize = lens.iter().sum();
            let before = s.stats().snapshot();
            let mut want = vec![0u8; total];
            r.read_exact_at(offset, &mut want).unwrap();
            let plain = s.stats().snapshot().since(&before);

            let mut bufs: Vec<Vec<u8>> = lens.iter().map(|&n| vec![0xAA; n]).collect();
            let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            let before = s.stats().snapshot();
            r.read_exact_vectored_at(offset, &mut views).unwrap();
            let vectored = s.stats().snapshot().since(&before);
            assert_eq!(bufs.concat(), want, "offset {offset} lens {lens:?}");
            assert_eq!(vectored, plain, "offset {offset} lens {lens:?}");
        }
        let len = payload.len() as u64;
        let mut a = [0u8; 10];
        let mut b = [0u8; 10];
        let err = r
            .read_exact_vectored_at(len - 15, &mut [&mut a, &mut b])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = r
            .read_exact_vectored_at(len + 5, &mut [&mut a])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn vectored_read_matches_one_read_on_every_backend() {
        exercise_vectored(&MemStorage::new());
        exercise_vectored(&SimStorage::new(CostModel::default()));
        let dir = tempfile::tempdir().unwrap();
        exercise_vectored(&FileStorage::new(dir.path()).unwrap());
        let (fault, _ctl) = FaultStorage::wrap(Arc::new(SimStorage::new(CostModel::default())));
        exercise_vectored(fault.as_ref());
        let base: Arc<dyn Storage> = Arc::new(SimStorage::new(CostModel::default()));
        exercise_vectored(&PrefixedStorage::new(base, "p/"));
        let (crash, _ctl) = CrashStorage::new();
        exercise_vectored(crash.as_ref());
    }

    #[test]
    fn vectored_read_of_a_poisoned_file_fails() {
        let (s, ctl) = FaultStorage::wrap(Arc::new(MemStorage::new()));
        s.create("bad").unwrap().append(&[1u8; 64]).unwrap();
        let r = s.open_read("bad").unwrap();
        ctl.poison("bad");
        let mut a = [0u8; 8];
        assert!(r.read_exact_vectored_at(0, &mut [&mut a]).is_err());
        ctl.heal();
        r.read_exact_vectored_at(0, &mut [&mut a]).unwrap();
        assert_eq!(a, [1u8; 8]);
    }

    #[test]
    fn read_all_roundtrip() {
        let s = MemStorage::new();
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut w = s.create("blob").unwrap();
        w.append(&payload).unwrap();
        drop(w);
        assert_eq!(read_all(&s, "blob").unwrap(), payload);
    }
}
