//! Spill files: the temp-file format hash kernels degrade into.
//!
//! When a kernel exceeds its memory budget it radix-partitions its
//! key tags to disk and processes one partition at a time. A spill
//! file is a flat sequence of fixed-width little-endian records —
//! one per input row of the partition — in *input order*, which is
//! what makes spilled execution bit-identical to in-memory
//! execution: replaying a partition's records visits rows in the
//! same relative order the in-memory kernel would have.
//!
//! Two record layouts mirror the two key-tag representations of
//! `gis_core::exec`:
//!
//! * **fixed** — `(u32 row, u128 key)`, 20 bytes: the compact
//!   `gis_types::keys` u128 encoding, self-contained (equality on
//!   the key is equality on the row's group key).
//! * **hashed** — `(u32 row, u64 hash)`, 12 bytes: for wide keys the
//!   file stores only the hash; the kernel re-verifies candidate
//!   matches against the in-memory columns, exactly as the chained
//!   hash tables do.
//!
//! Files are written once, replayed with [`SpillFile::for_each`] (or
//! pulled record by record through [`SpillFile::reader`], which is how
//! the ORDER BY kernel merges its sorted `(row, key prefix)` runs —
//! those reuse the fixed layout), and deleted on drop (including
//! half-written files when a writer is dropped without
//! [`SpillWriter::finish`]).

use gis_types::error::{GisError, Result};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One spilled record: the row's index in the kernel's input plus
/// its key tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillRecord {
    /// Compact self-contained u128 key encoding.
    Fixed {
        /// Row index in the kernel's input.
        row: u32,
        /// The row's encoded key.
        key: u128,
    },
    /// Hash-only tag; equality must be re-verified against columns.
    Hashed {
        /// Row index in the kernel's input.
        row: u32,
        /// The row's key hash.
        hash: u64,
    },
}

impl SpillRecord {
    /// The row index of this record.
    pub fn row(&self) -> u32 {
        match self {
            SpillRecord::Fixed { row, .. } | SpillRecord::Hashed { row, .. } => *row,
        }
    }
}

const FIXED_RECORD: usize = 4 + 16;
const HASHED_RECORD: usize = 4 + 8;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(op: &str, path: &Path, e: std::io::Error) -> GisError {
    GisError::Storage(format!("spill {op} {}: {e}", path.display()))
}

/// Allocates a unique spill file path under `dir` (or the OS temp
/// directory when `dir` is `None`).
fn fresh_path(dir: Option<&Path>) -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("gis-spill-{}-{}.tmp", std::process::id(), seq);
    match dir {
        Some(d) => d.join(name),
        None => std::env::temp_dir().join(name),
    }
}

/// Streaming writer for one spill partition.
#[derive(Debug)]
pub struct SpillWriter {
    out: BufWriter<File>,
    path: PathBuf,
    fixed: bool,
    records: u64,
    bytes: u64,
    finished: bool,
}

impl SpillWriter {
    /// Creates a fresh spill file in `dir` (or the OS temp dir).
    /// `fixed` selects the record layout; a file holds one layout
    /// only.
    pub fn create(dir: Option<&Path>, fixed: bool) -> Result<SpillWriter> {
        let path = fresh_path(dir);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| io_err("mkdir", parent, e))?;
        }
        let file = File::create(&path).map_err(|e| io_err("create", &path, e))?;
        Ok(SpillWriter {
            out: BufWriter::new(file),
            path,
            fixed,
            records: 0,
            bytes: 0,
            finished: false,
        })
    }

    /// Appends one record. The record layout must match the one the
    /// writer was created with.
    pub fn push(&mut self, record: SpillRecord) -> Result<()> {
        match record {
            SpillRecord::Fixed { row, key } => {
                debug_assert!(self.fixed, "fixed record in hashed spill file");
                self.out
                    .write_all(&row.to_le_bytes())
                    .and_then(|()| self.out.write_all(&key.to_le_bytes()))
                    .map_err(|e| io_err("write", &self.path, e))?;
                self.bytes += FIXED_RECORD as u64;
            }
            SpillRecord::Hashed { row, hash } => {
                debug_assert!(!self.fixed, "hashed record in fixed spill file");
                self.out
                    .write_all(&row.to_le_bytes())
                    .and_then(|()| self.out.write_all(&hash.to_le_bytes()))
                    .map_err(|e| io_err("write", &self.path, e))?;
                self.bytes += HASHED_RECORD as u64;
            }
        }
        self.records += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes appended so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Flushes and seals the file for replay.
    pub fn finish(mut self) -> Result<SpillFile> {
        self.out
            .flush()
            .map_err(|e| io_err("flush", &self.path, e))?;
        self.finished = true;
        Ok(SpillFile {
            path: std::mem::take(&mut self.path),
            fixed: self.fixed,
            records: self.records,
            bytes: self.bytes,
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A sealed spill file, replayable in write order. Deletes itself on
/// drop.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    fixed: bool,
    records: u64,
    bytes: u64,
}

impl SpillFile {
    /// Number of records in the file.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// File size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// True when the file holds fixed (self-contained u128) records.
    pub fn is_fixed(&self) -> bool {
        self.fixed
    }

    /// Opens the file for pull-style replay in write order (what a
    /// k-way merge of sorted runs needs: one cursor per file).
    pub fn reader(&self) -> Result<SpillReader<'_>> {
        let file = File::open(&self.path).map_err(|e| io_err("open", &self.path, e))?;
        Ok(SpillReader {
            file: self,
            input: BufReader::new(file),
            remaining: self.records,
        })
    }

    /// Streams every record, in write order, through `f`. Replay is
    /// buffered; nothing is materialized.
    pub fn for_each(&self, mut f: impl FnMut(SpillRecord) -> Result<()>) -> Result<()> {
        let mut reader = self.reader()?;
        while let Some(record) = reader.next_record()? {
            f(record)?;
        }
        Ok(())
    }
}

/// A buffered cursor over a sealed [`SpillFile`].
#[derive(Debug)]
pub struct SpillReader<'a> {
    file: &'a SpillFile,
    input: BufReader<File>,
    remaining: u64,
}

impl SpillReader<'_> {
    /// The next record in write order, `None` past the last one.
    pub fn next_record(&mut self) -> Result<Option<SpillRecord>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let fixed = self.file.fixed;
        let record_len = if fixed { FIXED_RECORD } else { HASHED_RECORD };
        let mut buf = [0u8; FIXED_RECORD];
        self.input
            .read_exact(&mut buf[..record_len])
            .map_err(|e| io_err("read", &self.file.path, e))?;
        let row = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
        Ok(Some(if fixed {
            let mut key = [0u8; 16];
            key.copy_from_slice(&buf[4..20]);
            SpillRecord::Fixed {
                row,
                key: u128::from_le_bytes(key),
            }
        } else {
            let mut hash = [0u8; 8];
            hash.copy_from_slice(&buf[4..12]);
            SpillRecord::Hashed {
                row,
                hash: u64::from_le_bytes(hash),
            }
        }))
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn fixed_roundtrip_preserves_order() {
        let mut w = SpillWriter::create(None, true).unwrap();
        let records = vec![
            SpillRecord::Fixed { row: 3, key: 7 },
            SpillRecord::Fixed {
                row: 0,
                key: u128::MAX,
            },
            SpillRecord::Fixed { row: 9, key: 0 },
        ];
        for r in &records {
            w.push(*r).unwrap();
        }
        assert_eq!(w.records(), 3);
        let file = w.finish().unwrap();
        assert_eq!(file.bytes(), 60);
        let mut replayed = Vec::new();
        file.for_each(|r| {
            replayed.push(r);
            Ok(())
        })
        .unwrap();
        assert_eq!(replayed, records);
    }

    #[test]
    fn hashed_roundtrip() {
        let mut w = SpillWriter::create(None, false).unwrap();
        w.push(SpillRecord::Hashed {
            row: 42,
            hash: 0xdead_beef_cafe_f00d,
        })
        .unwrap();
        let file = w.finish().unwrap();
        assert_eq!(file.bytes(), 12);
        assert!(!file.is_fixed());
        let mut seen = Vec::new();
        file.for_each(|r| {
            seen.push(r);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![SpillRecord::Hashed {
                row: 42,
                hash: 0xdead_beef_cafe_f00d
            }]
        );
    }

    #[test]
    fn readers_pull_independently() {
        let write = |rows: &[u32]| {
            let mut w = SpillWriter::create(None, true).unwrap();
            for &row in rows {
                w.push(SpillRecord::Fixed {
                    row,
                    key: u128::from(row) << 64,
                })
                .unwrap();
            }
            w.finish().unwrap()
        };
        let (a, b) = (write(&[1, 3]), write(&[2]));
        let (mut ra, mut rb) = (a.reader().unwrap(), b.reader().unwrap());
        let row = |r: Option<SpillRecord>| r.map(|r| r.row());
        assert_eq!(row(ra.next_record().unwrap()), Some(1));
        assert_eq!(row(rb.next_record().unwrap()), Some(2));
        assert_eq!(row(rb.next_record().unwrap()), None);
        assert_eq!(row(ra.next_record().unwrap()), Some(3));
        assert_eq!(row(ra.next_record().unwrap()), None);
        assert_eq!(row(ra.next_record().unwrap()), None, "stays at the end");
    }

    #[test]
    fn files_are_deleted_on_drop() {
        let w = SpillWriter::create(None, true).unwrap();
        let unfinished_path = w.path.clone();
        drop(w);
        assert!(!unfinished_path.exists(), "abandoned writer cleans up");

        let mut w = SpillWriter::create(None, true).unwrap();
        w.push(SpillRecord::Fixed { row: 1, key: 2 }).unwrap();
        let file = w.finish().unwrap();
        let path = file.path.clone();
        assert!(path.exists());
        drop(file);
        assert!(!path.exists(), "sealed file cleans up");
    }

    #[test]
    fn custom_directory_is_respected() {
        let dir = std::env::temp_dir().join(format!("gis-spill-test-{}", std::process::id()));
        let mut w = SpillWriter::create(Some(&dir), true).unwrap();
        w.push(SpillRecord::Fixed { row: 0, key: 1 }).unwrap();
        let file = w.finish().unwrap();
        assert!(file.path.starts_with(&dir));
        drop(file);
        let _ = std::fs::remove_dir(&dir);
    }
}
