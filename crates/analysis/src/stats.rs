//! Trace statistics: per-layer counts, byte totals, duration
//! percentiles, and bandwidth — the quantitative half of "constructive
//! use of the trace data collected" (paper §3.1, "analysis tools").

use iotrace_model::event::{CallLayer, Trace, TraceRecord};
use iotrace_model::iot2::{Frame, Iot2Error, Iot2View};
use iotrace_sim::time::SimDur;

/// Summary statistics over a set of records: the finished form of a
/// [`StatsFold`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceStats {
    pub records: usize,
    pub errors: usize,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub mpi_calls: usize,
    pub sys_calls: usize,
    pub vfs_ops: usize,
    /// Total time spent inside traced calls.
    pub call_time: SimDur,
    pub dur_p50: SimDur,
    pub dur_p95: SimDur,
    pub dur_max: SimDur,
}

impl TraceStats {
    /// One [`StatsFold`] over `records`, finished.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> Self {
        records.into_iter().collect::<StatsFold>().finish()
    }

    pub fn from_trace(t: &Trace) -> Self {
        Self::from_records(&t.records)
    }

    /// Statistics straight off an opened IOT2 view, without building a
    /// `Vec<TraceRecord>`. A structurally bad frame is an error.
    pub fn from_iot2(view: &Iot2View<'_>) -> Result<Self, Iot2Error> {
        view.frames()
            .collect::<Result<StatsFold, _>>()
            .map(|f| f.finish())
    }

    /// Render a short human-readable report.
    pub fn render(&self) -> String {
        format!(
            "records: {} (errors: {})\n\
             layers: mpi={} sys={} vfs={}\n\
             bytes: read={} written={}\n\
             call time: {} (p50 {}, p95 {}, max {})\n",
            self.records,
            self.errors,
            self.mpi_calls,
            self.sys_calls,
            self.vfs_ops,
            self.bytes_read,
            self.bytes_written,
            self.call_time,
            self.dur_p50,
            self.dur_p95,
            self.dur_max
        )
    }
}

/// Sub-bucket bits of the duration sketch: each power-of-two range of
/// nanoseconds above 2^`SUB_BITS` splits into 2^`SUB_BITS` equal buckets.
const SUB_BITS: u32 = 7;

/// Sketch bucket of a duration in nanoseconds (HdrHistogram-style
/// log-linear indexing): durations below 2^(`SUB_BITS` + 1) get a bucket
/// each; above that, a bucket spans `2^shift` values whose lowest is at
/// least `2^(SUB_BITS + shift)`.
fn bucket(dur_ns: u64) -> usize {
    let shift = (63 - (dur_ns | 1).leading_zeros()).saturating_sub(SUB_BITS);
    ((u64::from(shift) << SUB_BITS) + (dur_ns >> shift)) as usize
}

/// The largest duration that falls in bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    let shift = (i >> SUB_BITS).saturating_sub(1) as u32;
    let lowest = ((i - ((shift as usize) << SUB_BITS)) as u64) << shift;
    lowest + ((1u64 << shift) - 1)
}

/// The statistics fold: every stats answer — batch, per-file,
/// collector-incremental, federated, streamed at scale — is one of these
/// folds, possibly merged from parts, then [`StatsFold::finish`]ed.
///
/// Counts, byte totals, call time and `dur_max` are exact. Durations go
/// into a mergeable relative-error sketch in the style of DDSketch
/// (Masson et al., VLDB '19) with HdrHistogram's log-linear buckets, 2^7
/// per power of two, so a percentile is:
///
/// * picked at the nearest-rank index `round((n - 1) * q)`;
/// * reported as the upper bound of the bucket holding that index,
///   clamped to the exact `dur_max` — never below the true value;
/// * exact below 256 ns, and above that less than 1/128 relative error.
///
/// `merge` adds bucket counts, so merging folds over any partition of a
/// record stream, in any order, finishes to the same [`TraceStats`] as
/// one fold over the whole stream. The sketch grows to the highest
/// bucket seen: ~24 KiB for durations up to one second.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsFold {
    /// Everything but the percentiles, which `finish` fills in.
    base: TraceStats,
    hist: Vec<u64>,
}

impl StatsFold {
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one call: `read`/`written` are its bytes in each direction.
    fn push(&mut self, layer: CallLayer, error: bool, read: u64, written: u64, dur: SimDur) {
        let s = &mut self.base;
        s.records += 1;
        s.errors += usize::from(error);
        match layer {
            CallLayer::Mpi => s.mpi_calls += 1,
            CallLayer::Sys => s.sys_calls += 1,
            CallLayer::Vfs => s.vfs_ops += 1,
        }
        s.bytes_read += read;
        s.bytes_written += written;
        s.call_time += dur;
        s.dur_max = s.dur_max.max(dur);
        let b = bucket(dur.as_nanos());
        if b >= self.hist.len() {
            self.hist.resize(b + 1, 0);
        }
        self.hist[b] += 1;
    }

    pub fn push_record(&mut self, r: &TraceRecord) {
        use iotrace_model::event::IoCall::*;
        let bytes = r.call.bytes();
        let (read, written) = match &r.call {
            Read { .. } | Pread { .. } | MpiFileReadAt { .. } | VfsReadPage { .. } => (bytes, 0),
            Write { .. } | Pwrite { .. } | MpiFileWriteAt { .. } | VfsWritePage { .. } => {
                (0, bytes)
            }
            _ => (0, 0),
        };
        self.push(r.call.layer(), r.is_error(), read, written, r.dur);
    }

    /// [`StatsFold::push_record`] for a zero-copy frame.
    pub fn push_frame(&mut self, f: &Frame) {
        let bytes = f.bytes_moved();
        let read = if f.is_read() { bytes } else { 0 };
        let written = if f.is_write() { bytes } else { 0 };
        self.push(f.layer(), f.is_error(), read, written, f.dur);
    }

    pub fn push_records<'a>(&mut self, records: impl IntoIterator<Item = &'a TraceRecord>) {
        for r in records {
            self.push_record(r);
        }
    }

    pub fn records(&self) -> usize {
        self.base.records
    }

    /// Exact merge: fold grouping and order never change the result.
    pub fn merge(&mut self, other: &StatsFold) {
        let (a, b) = (&mut self.base, &other.base);
        a.records += b.records;
        a.errors += b.errors;
        a.bytes_read += b.bytes_read;
        a.bytes_written += b.bytes_written;
        a.mpi_calls += b.mpi_calls;
        a.sys_calls += b.sys_calls;
        a.vfs_ops += b.vfs_ops;
        a.call_time += b.call_time;
        a.dur_max = a.dur_max.max(b.dur_max);
        if self.hist.len() < other.hist.len() {
            self.hist.resize(other.hist.len(), 0);
        }
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += *b;
        }
    }

    /// The duration at quantile `q` (0.0..=1.0), per the type docs.
    pub fn quantile(&self, q: f64) -> SimDur {
        if self.base.records == 0 {
            return SimDur::ZERO;
        }
        let target = ((self.base.records - 1) as f64 * q).round() as u64;
        let max = self.base.dur_max;
        let mut seen = 0u64;
        for (i, &c) in self.hist.iter().enumerate() {
            seen += c;
            if seen > target {
                return SimDur::from_nanos(bucket_upper(i)).min(max);
            }
        }
        max
    }

    /// The finished statistics, percentiles per [`Self::quantile`].
    pub fn finish(&self) -> TraceStats {
        TraceStats {
            dur_p50: self.quantile(0.50),
            dur_p95: self.quantile(0.95),
            ..self.base.clone()
        }
    }
}

impl<'a> FromIterator<&'a TraceRecord> for StatsFold {
    fn from_iter<I: IntoIterator<Item = &'a TraceRecord>>(records: I) -> Self {
        let mut fold = StatsFold::new();
        fold.push_records(records);
        fold
    }
}

impl FromIterator<Frame> for StatsFold {
    fn from_iter<I: IntoIterator<Item = Frame>>(frames: I) -> Self {
        let mut fold = StatsFold::new();
        for f in frames {
            fold.push_frame(&f);
        }
        fold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_model::event::IoCall;
    use iotrace_sim::time::SimTime;

    fn rec(call: IoCall, dur_us: u64, result: i64) -> TraceRecord {
        TraceRecord {
            ts: SimTime::ZERO,
            dur: SimDur::from_micros(dur_us),
            rank: 0,
            node: 0,
            pid: 1,
            uid: 0,
            gid: 0,
            call,
            result,
        }
    }

    #[test]
    fn counts_layers_and_bytes() {
        let recs = vec![
            rec(IoCall::Write { fd: 3, len: 100 }, 10, 100),
            rec(IoCall::Read { fd: 3, len: 40 }, 20, 40),
            rec(IoCall::MpiBarrier, 1000, 0),
            rec(
                IoCall::VfsWritePage {
                    path: "/x".into(),
                    offset: 0,
                    len: 100,
                },
                5,
                100,
            ),
            rec(
                IoCall::Open {
                    path: "/x".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
                -2,
            ),
        ];
        let s = TraceStats::from_records(&recs);
        assert_eq!(s.records, 5);
        assert_eq!(s.errors, 1);
        assert_eq!(s.bytes_written, 200);
        assert_eq!(s.bytes_read, 40);
        assert_eq!(s.mpi_calls, 1);
        assert_eq!(s.sys_calls, 3);
        assert_eq!(s.vfs_ops, 1);
        assert_eq!(s.dur_max, SimDur::from_micros(1000));
    }

    #[test]
    fn percentiles_ordered() {
        let recs: Vec<TraceRecord> = (1..=100)
            .map(|i| rec(IoCall::Write { fd: 3, len: 1 }, i, 1))
            .collect();
        let s = TraceStats::from_records(&recs);
        assert!(s.dur_p50 <= s.dur_p95);
        assert!(s.dur_p95 <= s.dur_max);
    }

    #[test]
    fn empty_and_zero_durations() {
        assert_eq!(TraceStats::from_records([]), TraceStats::default());
        let z = TraceStats::from_records(&[rec(IoCall::MpiBarrier, 0, 0)]);
        assert_eq!(z.records, 1);
        assert_eq!(z.dur_p50, SimDur::ZERO);
        assert_eq!(z.dur_max, SimDur::ZERO);
    }

    #[test]
    fn merge_accumulates() {
        let a: StatsFold = [rec(IoCall::Write { fd: 1, len: 5 }, 10, 5)]
            .iter()
            .collect();
        let mut fold: StatsFold = [rec(IoCall::Read { fd: 1, len: 7 }, 20, 7)]
            .iter()
            .collect();
        fold.merge(&a);
        let b = fold.finish();
        assert_eq!(b.records, 2);
        assert_eq!(b.bytes_written, 5);
        assert_eq!(b.bytes_read, 7);
        assert_eq!(b.dur_max, SimDur::from_micros(20));
    }

    #[test]
    fn frame_fold_matches_record_fold() {
        use iotrace_model::event::{Trace, TraceMeta};
        let calls = vec![
            (IoCall::Write { fd: 3, len: 100 }, 100),
            (IoCall::Read { fd: 3, len: 40 }, 40),
            (IoCall::MpiBarrier, 0),
            (
                IoCall::VfsWritePage {
                    path: "/x".into(),
                    offset: 0,
                    len: 100,
                },
                100,
            ),
            (
                IoCall::Open {
                    path: "/x".into(),
                    flags: 0,
                    mode: 0,
                },
                -2,
            ),
            (IoCall::Mmap { len: 4096 }, 0),
            (
                IoCall::MpiFileReadAt {
                    fd: 9,
                    offset: 0,
                    len: 77,
                },
                77,
            ),
        ];
        let mut t = Trace::new(TraceMeta::new("/app", 0, 0, "t"));
        for (i, (call, result)) in calls.into_iter().enumerate() {
            t.records.push(rec(call, 3 + i as u64 * 7, result));
        }
        let from_records = TraceStats::from_trace(&t);
        let bytes = iotrace_model::iot2::encode_iot2(&t).unwrap();
        let view = iotrace_model::iot2::Iot2View::open(&bytes).unwrap();
        let from_frames = TraceStats::from_iot2(&view).unwrap();
        assert_eq!(from_frames, from_records);
    }

    #[test]
    fn buckets_are_exact_low_and_tight_above() {
        for v in (0..300u64).chain([1 << 20, 123_456_789, u64::MAX - 1, u64::MAX]) {
            let upper = bucket_upper(bucket(v));
            assert!(upper >= v, "{v}: upper {upper}");
            if v < 256 {
                assert_eq!(upper, v);
            } else {
                assert!((upper - v) as u128 * 128 < v as u128, "{v}: upper {upper}");
            }
        }
        // buckets tile the line: each one starts right after the last
        for i in 1..5000 {
            assert_eq!(bucket(bucket_upper(i - 1) + 1), i);
        }
        assert_eq!(bucket_upper(bucket(u64::MAX)), u64::MAX);
    }

    #[test]
    fn render_mentions_key_numbers() {
        let s = TraceStats::from_records(&[rec(IoCall::Write { fd: 1, len: 5 }, 10, 5)]);
        let out = s.render();
        assert!(out.contains("records: 1"));
        assert!(out.contains("written=5"));
    }
}
