//! Shared helpers: percentiles, process counters, the trace-file loader
//! and digests.

use iotrace_model::binary::decode_binary_salvage;
use iotrace_model::event::Trace;
use iotrace_model::journal::{fsck_journal, records_digest};
use iotrace_model::text::parse_text_salvage;
use iotrace_model::xtea::Key;
use iotrace_partrace::replayable::ReplayableTrace;

/// Nearest-rank percentile of an ascending slice, `q` in `[0, 1]`.
/// The one percentile definition every metric of the benchmark uses.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process since it started or since
/// the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Start a new peak: the peak resident set size becomes the current
/// one. Where the kernel refuses, the peak stays the whole process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Bytes this process has passed to `write`-family calls so far.
pub fn wchar() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

/// The on-disk trace formats the benchmark writes, recognized the way
/// `iotrace`'s loader does: by magic bytes, falling back to text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Journal,
    Binary,
    Replayable,
    Text,
}

impl Format {
    pub fn detect(bytes: &[u8]) -> Format {
        if bytes.starts_with(b"IOTJ") {
            Format::Journal
        } else if bytes.starts_with(b"IOTB") {
            Format::Binary
        } else if bytes.starts_with(b"==== partrace") {
            Format::Replayable
        } else {
            Format::Text
        }
    }

    /// Span name of the decoder this format dispatches to.
    pub fn span(self) -> &'static str {
        match self {
            Format::Journal => "model.journal_decode_s",
            Format::Binary => "model.binary_decode_s",
            Format::Replayable => "model.replayable_parse_s",
            Format::Text => "model.text_parse_s",
        }
    }
}

/// What a trace file decoded to.
pub enum Loaded {
    Traces(Vec<Trace>),
    Replayable(ReplayableTrace),
}

/// Decode one trace file of a known format with the salvaging decoders
/// `iotrace`'s loader uses. Any damage is an error here: the benchmark
/// only reads files it wrote itself.
pub fn decode(format: Format, bytes: &[u8], key: Option<&Key>) -> Result<Loaded, String> {
    let trace = match format {
        Format::Journal => {
            let (trace, report) = fsck_journal(bytes).map_err(|e| format!("journal: {e}"))?;
            if report.is_damaged() {
                return Err(format!("journal damaged: {report}"));
            }
            trace
        }
        Format::Binary => {
            let s = decode_binary_salvage(bytes, key).map_err(|e| format!("binary: {e}"))?;
            if let Some(r) = s.report {
                return Err(format!("binary damaged: {r}"));
            }
            s.decoded.trace
        }
        Format::Replayable => {
            let text = std::str::from_utf8(bytes).map_err(|e| format!("replayable: {e}"))?;
            let rt = ReplayableTrace::parse(text).map_err(|e| format!("replayable: {e}"))?;
            return Ok(Loaded::Replayable(rt));
        }
        Format::Text => {
            let text = std::str::from_utf8(bytes).map_err(|e| format!("text: {e}"))?;
            let s = parse_text_salvage(text);
            if let Some(r) = s.report {
                return Err(format!("text damaged: {r}"));
            }
            s.trace
        }
    };
    Ok(Loaded::Traces(vec![trace]))
}

/// Digest of a set of traces: per-trace record digests, in order.
pub fn traces_digest(traces: &[Trace]) -> Vec<u64> {
    traces.iter().map(|t| records_digest(&t.records)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn formats_are_detected_by_magic() {
        assert_eq!(Format::detect(b"IOTJ...."), Format::Journal);
        assert_eq!(Format::detect(b"IOTB...."), Format::Binary);
        assert_eq!(
            Format::detect(b"==== partrace replayable trace ====\n"),
            Format::Replayable
        );
        assert_eq!(Format::detect(b"1159808385.1 open(...)"), Format::Text);
    }
}
