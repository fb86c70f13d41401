//! Plain in-memory storage. No cost model — used for fast unit tests and as
//! the byte store underlying [`crate::SimStorage`].

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{scatter, IoStats, RandomAccessFile, Storage, WritableFile};

type FileMap = HashMap<String, Arc<RwLock<Vec<u8>>>>;

/// An in-memory named-file store.
#[derive(Debug, Default)]
pub struct MemStorage {
    files: RwLock<FileMap>,
    stats: IoStats,
}

impl MemStorage {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn get(&self, name: &str) -> Option<Arc<RwLock<Vec<u8>>>> {
        self.files.read().get(name).cloned()
    }

    /// A deep copy of every file's current contents — a point-in-time disk
    /// image. The crash-point harness ([`crate::CrashStorage`]) hands these
    /// out so a test can "reopen the machine" from the exact bytes a halted
    /// world left behind, as many times as it likes.
    pub fn deep_clone(&self) -> MemStorage {
        let out = MemStorage::new();
        let mut files = out.files.write();
        for (name, data) in self.files.read().iter() {
            files.insert(name.clone(), Arc::new(RwLock::new(data.read().clone())));
        }
        drop(files);
        out
    }

    pub(crate) fn insert_empty(&self, name: &str) -> Arc<RwLock<Vec<u8>>> {
        let buf = Arc::new(RwLock::new(Vec::new()));
        self.files
            .write()
            .insert(name.to_string(), Arc::clone(&buf));
        buf
    }

    fn not_found(name: &str) -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
    }
}

/// Read side of an in-memory file.
pub(crate) struct MemFile {
    pub(crate) data: Arc<RwLock<Vec<u8>>>,
    pub(crate) stats: IoStats,
}

impl RandomAccessFile for MemFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let data = self.data.read();
        let off = offset as usize;
        if off >= data.len() {
            return Ok(0);
        }
        let n = buf.len().min(data.len() - off);
        buf[..n].copy_from_slice(&data[off..off + n]);
        self.stats.record_read(n as u64, 0, 0);
        Ok(n)
    }

    fn read_exact_vectored_at(&self, offset: u64, bufs: &mut [&mut [u8]]) -> io::Result<()> {
        let n = scatter(&self.data.read(), offset, bufs)?;
        self.stats.record_read(n as u64, 0, 0);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.data.read().len() as u64
    }
}

/// Append side of an in-memory file.
pub(crate) struct MemWriter {
    pub(crate) data: Arc<RwLock<Vec<u8>>>,
    pub(crate) stats: IoStats,
    pub(crate) written: u64,
}

impl WritableFile for MemWriter {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let mut buf = self.data.write();
        // Reserve with 50% headroom so the growth memcpy happens during the
        // large data-section appends, not during a later tiny append (which
        // would attribute the realloc cost to whatever small write followed —
        // e.g. an index model — and distort stage timings).
        let need = buf.len() + data.len();
        if buf.capacity() < need {
            buf.reserve(data.len() + need / 2);
        }
        buf.extend_from_slice(data);
        drop(buf);
        self.written += data.len() as u64;
        self.stats.record_write(data.len() as u64, 0, 0);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn written(&self) -> u64 {
        self.written
    }
}

impl Storage for MemStorage {
    fn open_read(&self, name: &str) -> io::Result<Arc<dyn RandomAccessFile>> {
        let data = self.get(name).ok_or_else(|| Self::not_found(name))?;
        Ok(Arc::new(MemFile {
            data,
            stats: self.stats.clone(),
        }))
    }

    fn create(&self, name: &str) -> io::Result<Box<dyn WritableFile>> {
        let data = self.insert_empty(name);
        Ok(Box::new(MemWriter {
            data,
            stats: self.stats.clone(),
            written: 0,
        }))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.files
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Self::not_found(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.files.read().contains_key(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.files.read().keys().cloned().collect())
    }

    fn size_of(&self, name: &str) -> io::Result<u64> {
        self.get(name)
            .map(|d| d.read().len() as u64)
            .ok_or_else(|| Self::not_found(name))
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_truncates() {
        let s = MemStorage::new();
        s.create("f").unwrap().append(b"aaaa").unwrap();
        let w = s.create("f").unwrap();
        assert_eq!(w.written(), 0);
        assert_eq!(s.size_of("f").unwrap(), 0);
    }

    #[test]
    fn reader_sees_writes_through_shared_buffer() {
        let s = MemStorage::new();
        let mut w = s.create("f").unwrap();
        w.append(b"abc").unwrap();
        let r = s.open_read("f").unwrap();
        w.append(b"def").unwrap();
        assert_eq!(r.len(), 6);
        let mut buf = [0u8; 6];
        r.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn bytes_counted_in_stats() {
        let s = MemStorage::new();
        s.create("f").unwrap().append(&[0u8; 100]).unwrap();
        let r = s.open_read("f").unwrap();
        let mut buf = [0u8; 40];
        r.read_exact_at(0, &mut buf).unwrap();
        let snap = s.stats().snapshot();
        assert_eq!(snap.write_bytes, 100);
        assert_eq!(snap.read_bytes, 40);
    }
}
