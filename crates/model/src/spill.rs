//! Streaming spill-to-journal: append-only spool files of sealed IOTJ
//! segments, written without ever rewriting a byte.
//!
//! At the 4096-rank tier a capture session produces ~10⁸ records; no
//! stage may hold them all in memory. A [`SpillWriter`] gives each rank
//! stream a bounded in-memory buffer: when the buffer crosses the
//! *watermark*, every full segment's worth of records is sealed and
//! appended to the rank's spool file, and only the sub-segment remainder
//! stays resident. Downstream analysis then decodes the spool straight
//! from disk — segment-parallel, via the ordinary
//! [`crate::journal::read_journal`] path, because the spool IS a
//! journal (v1 or v2 container, chosen at creation).
//!
//! **Invariant:** for any append/watermark pattern whatsoever, the
//! finished spool file is byte-identical to
//! [`crate::journal::encode_journal_versioned`] over the full record
//! sequence at the same segment size. Spilling changes *when* bytes
//! reach disk, never *which* bytes. That is what lets every existing
//! journal tool — fsck, split, resume, the collector's spool recovery —
//! operate on spilled captures unchanged, and it is checked by proptest
//! across random flush patterns. Only an explicit
//! [`SpillWriter::seal_segment`] (a collector closing or draining a
//! session early) starts a short segment mid-stream.
//!
//! Durability contract: the file only ever grows, one `write` per sealed
//! segment, and [`SpillWriter::sync`] (`fdatasync`) makes everything
//! appended so far durable. A caller that acknowledges durability —
//! the collector's `Sealed` ack — syncs first. A crash therefore loses
//! at most what was appended after the last sync: the sealed prefix up
//! to [`SpillWriter::synced_bytes`] fscks clean, and a tail cut at any
//! byte past it is exactly the torn tail [`fsck_journal`] discards.
//! [`SpillWriter::tear`] appends such a tail on purpose, for simulated
//! kills.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::event::{Trace, TraceMeta, TraceRecord};
use crate::journal::{
    fsck_journal, header_bytes, read_journal, sealed_run, segment_bytes, torn_tail, FsckReport,
    VERSION_V2,
};

/// Default in-memory watermark (records) before a spill is attempted.
pub const DEFAULT_WATERMARK: usize = 4096;

/// One record stream appending to one spool file. See module docs.
pub struct SpillWriter {
    file: File,
    path: PathBuf,
    meta: TraceMeta,
    pending: Vec<TraceRecord>,
    segment_records: usize,
    watermark: usize,
    version: u8,
    spooled_bytes: u64,
    synced_bytes: u64,
    sealed_segments: u64,
    sealed_records: u64,
    peak_pending: usize,
}

/// What one finished spool file holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillStats {
    pub path: PathBuf,
    pub bytes: u64,
    pub segments: u64,
    pub records: u64,
    /// High-water mark of the in-memory buffer: the writer's actual
    /// resident footprint, which bounded-RSS tests assert against.
    pub peak_pending: usize,
}

impl SpillWriter {
    /// Create a v2 spool file at `path` and write the container header.
    /// `watermark` is clamped up to `segment_records` — below that no
    /// full segment could ever form and the buffer would grow anyway.
    pub fn create(
        path: impl Into<PathBuf>,
        meta: &TraceMeta,
        segment_records: usize,
        watermark: usize,
    ) -> io::Result<SpillWriter> {
        Self::create_versioned(path, meta, VERSION_V2, segment_records, watermark)
    }

    /// [`SpillWriter::create`] with an explicit container version (1 or
    /// 2). The header is written but not synced.
    pub fn create_versioned(
        path: impl Into<PathBuf>,
        meta: &TraceMeta,
        version: u8,
        segment_records: usize,
        watermark: usize,
    ) -> io::Result<SpillWriter> {
        if version != 1 && version != VERSION_V2 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unsupported journal version {version}"),
            ));
        }
        let path = path.into();
        let segment_records = segment_records.max(1);
        let mut file = File::create(&path)?;
        let hdr = header_bytes(meta, version);
        file.write_all(&hdr)?;
        Ok(SpillWriter {
            file,
            path,
            meta: meta.clone(),
            pending: Vec::new(),
            segment_records,
            watermark: watermark.max(segment_records),
            version,
            spooled_bytes: hdr.len() as u64,
            synced_bytes: 0,
            sealed_segments: 0,
            sealed_records: 0,
            peak_pending: 0,
        })
    }

    pub fn append(&mut self, rec: TraceRecord) -> io::Result<()> {
        self.pending.push(rec);
        self.peak_pending = self.peak_pending.max(self.pending.len());
        if self.pending.len() >= self.watermark {
            self.spill()?;
        }
        Ok(())
    }

    pub fn append_all(&mut self, recs: impl IntoIterator<Item = TraceRecord>) -> io::Result<()> {
        for r in recs {
            self.append(r)?;
        }
        Ok(())
    }

    /// Seal every *full* segment in the buffer to disk, keeping the
    /// sub-segment remainder resident. Sealing partial segments here
    /// would change the finished bytes (a one-shot journal only seals a
    /// short segment at the very end), breaking the byte-identity
    /// invariant — so the remainder waits for more records, an explicit
    /// [`SpillWriter::seal_segment`], or `finish`.
    pub fn spill(&mut self) -> io::Result<()> {
        let full = (self.pending.len() / self.segment_records) * self.segment_records;
        self.write_segments(full)
    }

    /// Seal everything resident now, the remainder as a short segment
    /// (no-op when nothing is pending). Not synced.
    pub fn seal_segment(&mut self) -> io::Result<()> {
        self.write_segments(self.pending.len())
    }

    /// Seal the first `n` pending records, `segment_records` per
    /// segment, one append each.
    fn write_segments(&mut self, n: usize) -> io::Result<()> {
        if n == 0 {
            return Ok(());
        }
        for chunk in self.pending[..n].chunks(self.segment_records) {
            let seg = segment_bytes(chunk, self.version);
            self.file.write_all(&seg)?;
            self.spooled_bytes += seg.len() as u64;
            self.sealed_segments += 1;
            self.sealed_records += chunk.len() as u64;
        }
        self.pending.drain(..n);
        Ok(())
    }

    /// Append `bytes`, whole sealed segments shipped from another spool
    /// of the same container version (a session handoff), after checking
    /// their framing, CRCs and records. Refused while records are
    /// pending, which would reorder the stream. Not synced. Returns the
    /// records appended.
    pub fn append_sealed(&mut self, bytes: &[u8]) -> io::Result<u64> {
        if !self.pending.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "sealed segments appended behind pending records",
            ));
        }
        let (segments, records) = sealed_run(bytes, &self.meta, self.version)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.file.write_all(bytes)?;
        self.spooled_bytes += bytes.len() as u64;
        self.sealed_segments += segments as u64;
        self.sealed_records += records as u64;
        Ok(records as u64)
    }

    /// Make every byte appended so far durable (`fdatasync`).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.synced_bytes < self.spooled_bytes {
            self.file.sync_data()?;
            self.synced_bytes = self.spooled_bytes;
        }
        Ok(())
    }

    /// Append the tail a crash in the middle of an append leaves — half
    /// of the pending segment, or a dangling length prefix when nothing
    /// is pending — without syncing it. This is how a simulated kill
    /// tears a spool; the writer must not be used afterwards.
    pub fn tear(&mut self) -> io::Result<()> {
        let tail = torn_tail(&self.pending, self.version);
        self.file.write_all(&tail)?;
        self.spooled_bytes += tail.len() as u64;
        Ok(())
    }

    /// Records currently resident in memory (always `< watermark` after
    /// an append returns).
    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    /// Records in sealed segments on disk.
    pub fn sealed_records(&self) -> u64 {
        self.sealed_records
    }

    /// Bytes appended to the file so far.
    pub fn spooled_bytes(&self) -> u64 {
        self.spooled_bytes
    }

    /// File length at the last [`SpillWriter::sync`]: what survives a
    /// crash right now.
    pub fn synced_bytes(&self) -> u64 {
        self.synced_bytes
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Seal everything left (including a final short segment), sync the
    /// file, and report what the spool holds.
    pub fn finish(mut self) -> io::Result<SpillStats> {
        self.seal_segment()?;
        self.sync()?;
        Ok(SpillStats {
            path: self.path,
            bytes: self.spooled_bytes,
            segments: self.sealed_segments,
            records: self.sealed_records,
            peak_pending: self.peak_pending,
        })
    }
}

/// A spool directory: one [`SpillWriter`] per rank stream, files named
/// `rank-NNNNN.iotj` so a directory listing sorts in rank order.
pub struct SpillSet {
    writers: Vec<SpillWriter>,
}

impl SpillSet {
    /// One spool file per meta (rank stream) under `dir`, created
    /// up-front so a crash at any later point leaves every stream with
    /// at least a valid empty journal.
    pub fn create(
        dir: impl AsRef<Path>,
        metas: &[TraceMeta],
        segment_records: usize,
        watermark: usize,
    ) -> io::Result<SpillSet> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut writers = Vec::with_capacity(metas.len());
        for m in metas {
            let path = dir.join(format!("rank-{:05}.iotj", m.rank));
            writers.push(SpillWriter::create(path, m, segment_records, watermark)?);
        }
        Ok(SpillSet { writers })
    }

    pub fn len(&self) -> usize {
        self.writers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.writers.is_empty()
    }

    /// Append to stream `idx` (position in the `metas` slice, not the
    /// global rank id).
    pub fn append(&mut self, idx: usize, rec: TraceRecord) -> io::Result<()> {
        self.writers[idx].append(rec)
    }

    /// Total records currently resident across every stream — the
    /// set-wide in-memory footprint.
    pub fn pending_records(&self) -> usize {
        self.writers.iter().map(|w| w.pending_records()).sum()
    }

    pub fn finish(self) -> io::Result<Vec<SpillStats>> {
        self.writers.into_iter().map(|w| w.finish()).collect()
    }
}

/// The spool files of `dir` in rank order (lexicographic file name
/// order, which the `rank-NNNNN` zero-padding makes rank order).
pub fn spool_files(dir: impl AsRef<Path>) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "iotj"))
        .collect();
    files.sort();
    Ok(files)
}

/// Strict decode of every spool file in `dir`, in rank order. Each file
/// decodes segment-parallel through [`read_journal`]; only one file's
/// records are materialized per loop iteration when the caller folds.
pub fn read_spool(dir: impl AsRef<Path>) -> Result<Vec<Trace>, String> {
    let mut traces = Vec::new();
    for p in spool_files(dir).map_err(|e| e.to_string())? {
        let bytes = std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        traces.push(read_journal(&bytes).map_err(|e| format!("{}: {e}", p.display()))?);
    }
    Ok(traces)
}

/// Fsck every spool file, in rank order: the recovery path for a spool
/// left by a killed capture. Hard container errors become `Err`; torn
/// tails are reported per file like `iotrace fsck` would.
pub fn fsck_spool(dir: impl AsRef<Path>) -> Result<Vec<(PathBuf, Trace, FsckReport)>, String> {
    let mut out = Vec::new();
    for p in spool_files(dir).map_err(|e| e.to_string())? {
        let bytes = std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let (trace, report) = fsck_journal(&bytes).map_err(|e| format!("{}: {e}", p.display()))?;
        out.push((p, trace, report));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IoCall;
    use crate::journal::encode_journal_versioned;
    use iotrace_sim::time::{SimDur, SimTime};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("iotrace-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample(rank: u32, n: usize) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/app.exe", rank, rank / 2, "lanl-trace"));
        for i in 0..n as u64 {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(100 + i * 7),
                dur: SimDur::from_micros(2 + i % 9),
                rank,
                node: rank / 2,
                pid: 1000 + rank,
                uid: 500,
                gid: 500,
                call: match i % 4 {
                    0 => IoCall::Open {
                        path: format!("/pfs/r{rank}/f{}", i / 4),
                        flags: 0o101,
                        mode: 0o644,
                    },
                    1 => IoCall::Pwrite {
                        fd: 7,
                        offset: i * 512,
                        len: 512,
                    },
                    2 => IoCall::Pread {
                        fd: 7,
                        offset: i * 512,
                        len: 512,
                    },
                    _ => IoCall::Close { fd: 7 },
                },
                result: 0,
            });
        }
        t
    }

    #[test]
    fn spool_is_byte_identical_to_oneshot_journal() {
        let dir = tmp_dir("byteid");
        for (seg, wm) in [(4usize, 4usize), (4, 11), (7, 100), (5, 1)] {
            let t = sample(3, 41);
            let path = dir.join(format!("s{seg}-w{wm}.iotj"));
            let mut w = SpillWriter::create(&path, &t.meta, seg, wm).unwrap();
            w.append_all(t.records.iter().cloned()).unwrap();
            let stats = w.finish().unwrap();
            let spooled = std::fs::read(&path).unwrap();
            assert_eq!(
                spooled,
                encode_journal_versioned(&t, seg, 2),
                "seg={seg} wm={wm}: spill changed the bytes"
            );
            assert_eq!(stats.bytes as usize, spooled.len());
            assert_eq!(stats.records, 41);
            assert_eq!(read_journal(&spooled).unwrap(), t);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_spool_with_early_seals_matches_the_journal_writer() {
        let dir = tmp_dir("v1early");
        let t = sample(2, 37);
        let path = dir.join("s.iotj");
        let mut w = SpillWriter::create_versioned(&path, &t.meta, 1, 8, 8).unwrap();
        let mut oracle = crate::journal::JournalWriter::new(&t.meta, 8);
        for (i, r) in t.records.iter().enumerate() {
            w.append(r.clone()).unwrap();
            oracle.append(r);
            if i == 12 || i == 13 || i == 30 {
                w.seal_segment().unwrap();
                oracle.seal_segment();
            }
        }
        assert_eq!(w.sealed_records(), oracle.sealed_records() as u64);
        w.finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), oracle.finish());
        assert!(SpillWriter::create_versioned(dir.join("x.iotj"), &t.meta, 3, 8, 8).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_marks_the_durable_prefix_and_tear_appends_a_torn_tail() {
        let dir = tmp_dir("tear");
        let t = sample(4, 20);
        let path = dir.join("s.iotj");
        let mut w = SpillWriter::create_versioned(&path, &t.meta, 1, 8, 8).unwrap();
        assert_eq!(w.synced_bytes(), 0, "create does not sync");
        w.append_all(t.records.iter().cloned()).unwrap(); // 16 sealed, 4 pending
        w.sync().unwrap();
        let synced = w.synced_bytes();
        assert_eq!(synced, w.spooled_bytes());
        assert_eq!(synced, std::fs::metadata(&path).unwrap().len());
        w.tear().unwrap();
        assert_eq!(w.synced_bytes(), synced, "a torn tail is never synced");
        let bytes = std::fs::read(&path).unwrap();
        let mut oracle = crate::journal::JournalWriter::new(&t.meta, 8);
        oracle.append_all(&t.records);
        assert_eq!(bytes, oracle.torn(), "same tear as the in-memory writer");
        let (rec, report) = fsck_journal(&bytes).unwrap();
        assert_eq!(rec.records.as_slice(), &t.records[..16]);
        assert_eq!(report.torn_tail_bytes as u64, bytes.len() as u64 - synced);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_sealed_takes_whole_segments_only() {
        let dir = tmp_dir("sealed");
        let t = sample(5, 30);
        for version in [1u8, 2] {
            let source = encode_journal_versioned(&t, 8, version);
            let chunks = crate::journal::split_journal(&source).unwrap();
            let path = dir.join(format!("v{version}.iotj"));
            let mut w = SpillWriter::create_versioned(&path, &t.meta, version, 8, 8).unwrap();
            assert_eq!(w.spooled_bytes(), chunks[0].len() as u64);
            // Half a segment, or a segment of the other container
            // version, is refused and leaves the file as it was.
            let seg = &chunks[1];
            assert!(w.append_sealed(&seg[..seg.len() / 2]).is_err());
            let other = encode_journal_versioned(&t, 8, 3 - version);
            let foreign = &crate::journal::split_journal(&other).unwrap()[1];
            assert!(w.append_sealed(foreign).is_err());
            assert_eq!(w.spooled_bytes(), chunks[0].len() as u64);
            let mut n = 0;
            for c in &chunks[1..] {
                n += w.append_sealed(c).unwrap();
            }
            assert_eq!(n, 30);
            w.append(t.records[0].clone()).unwrap();
            assert!(w.append_sealed(seg).is_err(), "would land behind pending");
            w.seal_segment().unwrap();
            let stats = w.finish().unwrap();
            assert_eq!(stats.records, 31);
            let mut expected = source.clone();
            expected.extend_from_slice(
                &crate::journal::split_journal(&encode_journal_versioned(
                    &sample(5, 1),
                    8,
                    version,
                ))
                .unwrap()[1],
            );
            assert_eq!(std::fs::read(&path).unwrap(), expected);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_bounds_resident_records() {
        let dir = tmp_dir("bound");
        let t = sample(0, 10_000);
        let path = dir.join("r.iotj");
        let mut w = SpillWriter::create(&path, &t.meta, 64, 256).unwrap();
        w.append_all(t.records.iter().cloned()).unwrap();
        assert!(w.pending_records() < 256);
        let stats = w.finish().unwrap();
        assert!(
            stats.peak_pending <= 256,
            "peak resident {} exceeded the watermark",
            stats.peak_pending
        );
        assert_eq!(read_journal(&std::fs::read(&path).unwrap()).unwrap(), t);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfinished_spool_fscks_clean_to_the_sealed_prefix() {
        let dir = tmp_dir("crash");
        let t = sample(1, 100);
        let path = dir.join("rank-00001.iotj");
        {
            let mut w = SpillWriter::create(&path, &t.meta, 8, 8).unwrap();
            w.append_all(t.records.iter().cloned()).unwrap();
            // 96 records sealed (12 segments), 4 resident — then the
            // process dies: w is dropped without finish().
            assert_eq!(w.pending_records(), 4);
        }
        let checked = fsck_spool(&dir).unwrap();
        assert_eq!(checked.len(), 1);
        let (_, rec, report) = &checked[0];
        assert!(!report.is_damaged(), "sealed-only writes never tear");
        assert_eq!(report.records_recovered, 96);
        assert_eq!(rec.records.as_slice(), &t.records[..96]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_set_spools_per_rank_in_rank_order() {
        let dir = tmp_dir("set");
        let traces: Vec<Trace> = (0..5u32).map(|r| sample(r, 30 + r as usize)).collect();
        let metas: Vec<TraceMeta> = traces.iter().map(|t| t.meta.clone()).collect();
        let mut set = SpillSet::create(&dir, &metas, 8, 16).unwrap();
        // Interleave appends across ranks like a live capture would.
        let mut idx = vec![0usize; traces.len()];
        loop {
            let mut any = false;
            for (i, t) in traces.iter().enumerate() {
                if idx[i] < t.records.len() {
                    set.append(i, t.records[idx[i]].clone()).unwrap();
                    idx[i] += 1;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        assert!(set.pending_records() < 5 * 16);
        let stats = set.finish().unwrap();
        assert_eq!(stats.len(), 5);
        let back = read_spool(&dir).unwrap();
        assert_eq!(back, traces, "spool reads back in rank order");
        for (s, t) in stats.iter().zip(&traces) {
            assert_eq!(s.records as usize, t.records.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_stream_leaves_a_valid_empty_journal() {
        let dir = tmp_dir("empty");
        let t = sample(9, 0);
        let mut set = SpillSet::create(&dir, std::slice::from_ref(&t.meta), 8, 8).unwrap();
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
        set.append(0, sample(9, 1).records[0].clone()).unwrap();
        let _ = set;
        // A fresh set that was never appended to still reads back.
        let dir2 = tmp_dir("empty2");
        let set2 = SpillSet::create(&dir2, std::slice::from_ref(&t.meta), 8, 8).unwrap();
        let stats = set2.finish().unwrap();
        assert_eq!(stats[0].records, 0);
        let back = read_spool(&dir2).unwrap();
        assert_eq!(back[0], t);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }
}
