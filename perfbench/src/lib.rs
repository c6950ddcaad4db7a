//! The iotrace benchmark: three workloads (`capture`, `analyze`,
//! `ingest`), end-to-end metrics from an untraced run, per-layer metrics
//! from a traced run. See `README.md` in this directory for the workloads,
//! the metrics and the prediction table.

use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod analyze;
pub mod capture;
pub mod host;
pub mod ingest;
pub mod spans;
pub mod util;

use host::{cpu_s, HostClock};
use spans::{Breakdown, Spans};
use util::{median, percentile, sorted};

/// Each workload's input generation is timed at least this many times
/// and, at full size, for at least [`SETUP_MIN_S`] seconds in all, so
/// that a short generation is sampled over more than a moment of the
/// host's speed; `setup_s` is the median, in reference seconds of the
/// host-speed kernel timed between the generations ([`host`]). One
/// untimed generation runs first, so first-touch page faults and
/// allocator growth stay out of the median.
pub const SETUP_REPS: usize = 7;
pub const SETUP_MIN_S: f64 = 3.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadName {
    Capture,
    Analyze,
    Ingest,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::Capture,
        WorkloadName::Analyze,
        WorkloadName::Ingest,
    ];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.as_str() == s)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::Capture => "capture",
            WorkloadName::Analyze => "analyze",
            WorkloadName::Ingest => "ingest",
        }
    }
}

/// Input size: `Full` is what the benchmark measures; `Small` keeps the
/// workloads' shape at a fraction of the work, for the benchmark's tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: WorkloadName,
    pub seed: u64,
    /// Measure for at least this long (after set-up and one warm-up
    /// iteration); at least one iteration always runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
    /// Scratch files and span dumps go here.
    pub out_dir: PathBuf,
}

/// What one iteration of a workload measured.
pub struct Iter {
    /// Wall time of the iteration's timed path, seconds.
    pub wall_s: f64,
    /// CPU time of the process over the timed path, seconds
    /// ([`host::cpu_s`]).
    pub cpu_s: f64,
    /// Records through the timed path.
    pub records: u64,
    /// Latency of each request the workload served, CPU seconds.
    pub latencies: Vec<f64>,
}

/// Operations attempted and failed. Every correctness check is one
/// operation; so is every request or step a workload counts.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Count operations that succeeded without a separate check.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }
}

pub trait Workload {
    /// Run one iteration: the timed path between
    /// [`Spans::begin_iteration`] and [`Spans::end_iteration`], then the
    /// correctness checks.
    fn iteration(&mut self, sp: &mut Spans, tally: &mut Tally) -> Result<Iter, String>;
}

/// End-to-end metrics (untraced run), the same on every workload:
/// (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_s", "s"),
    ("latency_p95_s", "s"),
];

/// Where a per-layer metric comes from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Self time of the spans with this name.
    Span,
    /// A value the workload recorded under this name.
    Value,
    /// Self time of every span of the layer named before `.self_s`.
    Layer,
    /// Median traced iteration wall time minus the untraced one.
    Overhead,
    /// Median traced iteration wall time.
    TracedWall,
    /// Median time of the host-speed kernel ([`host`]).
    HostKernel,
}

/// Per-layer metrics (traced run): (name, unit, source). Every workload
/// reports all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str, Source)] = &[
    // capture: simulator, I/O API, frameworks, formats, replay
    ("sim.untraced_run_s", "s", Source::Span),
    ("sim.events", "count", Source::Value),
    ("sim.elapsed_sim_s", "s", Source::Value),
    ("ioapi.ops", "count", Source::Value),
    ("ioapi.events_traced", "count", Source::Value),
    ("ioapi.tracer_sim_s", "s", Source::Value),
    ("lanl.run_s", "s", Source::Span),
    ("lanl.rec_per_s", "1/s", Source::Value),
    ("model.text_format_s", "s", Source::Span),
    ("model.text_parse_s", "s", Source::Span),
    ("tracefs.run_s", "s", Source::Span),
    ("tracefs.encode_s", "s", Source::Span),
    ("tracefs.rec_per_s", "1/s", Source::Value),
    ("model.binary_decode_s", "s", Source::Span),
    ("partrace.capture_s", "s", Source::Span),
    ("partrace.deps", "count", Source::Value),
    ("partrace.rec_per_s", "1/s", Source::Value),
    ("model.replayable_text_s", "s", Source::Span),
    ("model.replayable_parse_s", "s", Source::Span),
    ("replay.run_s", "s", Source::Span),
    ("disk.write_s", "s", Source::Span),
    ("disk.read_s", "s", Source::Span),
    // analyze: journal decode, folds, lint, provenance
    ("model.journal_decode_s", "s", Source::Span),
    ("model.bytes_read", "B", Source::Value),
    ("analysis.merge_s", "s", Source::Span),
    ("analysis.stats_s", "s", Source::Span),
    ("analysis.hotspots_s", "s", Source::Span),
    ("analysis.phases_s", "s", Source::Span),
    ("lint.run_s", "s", Source::Span),
    ("lint.findings", "count", Source::Value),
    ("lint.fd-lifecycle_s", "s", Source::Span),
    ("lint.causality_s", "s", Source::Span),
    ("lint.clock_s", "s", Source::Span),
    ("lint.depgraph_s", "s", Source::Span),
    ("lint.anonleak_s", "s", Source::Span),
    ("lint.conflict_s", "s", Source::Span),
    ("lint.policy-flow_s", "s", Source::Span),
    ("lint.lineage_s", "s", Source::Span),
    ("provenance.build_s", "s", Source::Span),
    ("provenance.nodes", "count", Source::Value),
    ("provenance.edges", "count", Source::Value),
    ("provenance.query_s", "s", Source::Span),
    ("provenance.queries", "count", Source::Value),
    // ingest: the collector
    ("collector.offer_s", "s", Source::Span),
    ("collector.drain_s", "s", Source::Span),
    ("collector.frames", "count", Source::Value),
    ("collector.seals", "count", Source::Value),
    ("collector.busy_refusals", "count", Source::Value),
    ("collector.queue_high_watermark", "count", Source::Value),
    ("collector.wchar_bytes", "B", Source::Value),
    ("collector.spool_bytes", "B", Source::Value),
    ("collector.write_amplification", "ratio", Source::Value),
    ("collector.seal_ack_p99_s", "s", Source::Value),
    ("collector.snapshot_s", "s", Source::Span),
    ("collector.snapshot_p50_s", "s", Source::Value),
    ("collector.recover_s", "s", Source::Span),
    ("collector.salvaged_segments", "count", Source::Value),
    // self time per layer, and what no layer accounts for
    ("sim.self_s", "s", Source::Layer),
    ("lanl.self_s", "s", Source::Layer),
    ("tracefs.self_s", "s", Source::Layer),
    ("partrace.self_s", "s", Source::Layer),
    ("replay.self_s", "s", Source::Layer),
    ("model.self_s", "s", Source::Layer),
    ("disk.self_s", "s", Source::Layer),
    ("analysis.self_s", "s", Source::Layer),
    ("lint.self_s", "s", Source::Layer),
    ("provenance.self_s", "s", Source::Layer),
    ("collector.self_s", "s", Source::Layer),
    // the roots' own self time (`spans::OTHER`)
    ("other_s", "s", Source::Span),
    // the tracing itself
    ("trace.wall_s", "s", Source::TracedWall),
    ("trace.overhead_s", "s", Source::Overhead),
    // the host's speed in this run
    ("host.kernel_s", "s", Source::HostKernel),
];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Per-iteration breakdowns of the traced run (empty when untraced).
    pub breakdowns: Vec<Breakdown>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Unit of a metric, by name, with or without a workload prefix
/// (`capture.setup_s`).
pub fn unit_of(name: &str) -> Option<&'static str> {
    let name = WorkloadName::ALL
        .iter()
        .find_map(|w| name.strip_prefix(w.as_str())?.strip_prefix('.'))
        .unwrap_or(name);
    let per_layer = PER_LAYER.iter().map(|&(n, u, _)| (n, u));
    END_TO_END
        .into_iter()
        .chain(per_layer)
        .find_map(|(n, u)| (n == name).then_some(u))
}

/// Read back a result line written by [`Outcome::to_json`].
pub fn parse_result(line: &str) -> Option<Outcome> {
    let field = |key: &str| -> Option<u64> {
        let rest = line.split_once(&format!("\"{key}\": "))?.1;
        rest[..rest.find(',')?].parse().ok()
    };
    let tally = Tally {
        attempted: field("attempted")?,
        failed: field("failed")?,
        failures: Vec::new(),
    };
    let mut metrics = Vec::new();
    let mut rest = line.split_once("\"metrics\": {")?.1;
    while let Some((_, entry)) = rest.split_once('"') {
        let (name, entry) = entry.split_once("\": {\"value\": ")?;
        let (value, entry) = entry.split_once(',')?;
        metrics.push(Metric {
            name: name.to_string(),
            unit: unit_of(name)?,
            value: value.parse().ok()?,
        });
        rest = entry.split_once('}')?.1;
    }
    Some(Outcome {
        tally,
        metrics,
        breakdowns: Vec::new(),
    })
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let work = opts.out_dir.join(format!(
        "work-{}-{}",
        opts.workload.as_str(),
        std::process::id()
    ));
    let (seed, size) = (opts.seed, opts.size);
    let outcome = match opts.workload {
        WorkloadName::Capture => drive(opts, &work, |d| capture::Capture::setup(seed, size, d)),
        WorkloadName::Analyze => drive(opts, &work, |d| analyze::Analyze::setup(seed, size, d)),
        WorkloadName::Ingest => drive(opts, &work, |d| ingest::Ingest::setup(seed, size, d)),
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn drive<W: Workload>(
    opts: &Options,
    work: &Path,
    setup: impl Fn(PathBuf) -> Result<W, String>,
) -> Result<Outcome, String> {
    let min_s = match opts.size {
        Size::Full => SETUP_MIN_S,
        Size::Small => 0.0,
    };
    let mut clock = HostClock::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut w = setup(work.to_path_buf())?;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < min_s {
        drop(w);
        let _ = std::fs::remove_dir_all(work);
        clock.sample(3);
        let t0 = cpu_s();
        w = setup(work.to_path_buf())?;
        setup_s.push(cpu_s() - t0);
    }
    clock.sample(3);
    let setup_clock = clock.take();

    let mut tally = Tally::default();
    let mut off = Spans::new(false);
    let mut on = Spans::new(true);
    let mut untraced: Vec<Iter> = Vec::new();
    let mut traced: Vec<Iter> = Vec::new();
    // Warm-up: caches fill and lazy initialization finishes before
    // timing.
    let warm = Instant::now();
    let mut failed = w.iteration(&mut off, &mut tally).err();
    let mut last_wall = warm.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut k = 0;
    while failed.is_none() {
        clock.sample_beside(last_wall);
        match w.iteration(&mut off, &mut tally) {
            Ok(it) => {
                last_wall = it.wall_s;
                untraced.push(it);
            }
            Err(e) => failed = Some(e),
        }
        if opts.trace && failed.is_none() {
            on.set_iteration(k);
            match w.iteration(&mut on, &mut tally) {
                Ok(it) => traced.push(it),
                Err(e) => failed = Some(e),
            }
        }
        k += 1;
        if t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    clock.sample_beside(last_wall);
    if let Some(e) = failed {
        tally.check(false, || e);
    }
    let iter_clock = clock.take();
    for (what, c) in [("set-up", &setup_clock), ("iteration", &iter_clock)] {
        eprintln!(
            "{}: {} {what} kernel samples, median {:.5} s",
            opts.workload.as_str(),
            c.len(),
            c.kernel_s(),
        );
    }
    let spread = |what: &str, samples: &[f64]| {
        let v = sorted(samples);
        eprintln!(
            "{}: {} {what}, min {:.4} s, median {:.4} s, max {:.4} s",
            opts.workload.as_str(),
            v.len(),
            v[0],
            percentile(&v, 0.5),
            v[v.len() - 1]
        );
    };
    spread("set-ups", &setup_s);
    if !untraced.is_empty() {
        spread(
            "iterations (wall)",
            &untraced.iter().map(|i| i.wall_s).collect::<Vec<_>>(),
        );
        spread(
            "iterations (cpu)",
            &untraced.iter().map(|i| i.cpu_s).collect::<Vec<_>>(),
        );
    }

    let mut outcome = Outcome {
        tally,
        metrics: Vec::new(),
        breakdowns: Vec::new(),
    };
    if untraced.is_empty() || (opts.trace && traced.is_empty()) {
        return Ok(outcome);
    }
    if opts.trace {
        let breakdowns: Vec<Breakdown> = on.breakdown().into_values().collect();
        for (i, b) in breakdowns.iter().enumerate() {
            let self_sum: u64 = b.self_ns.values().sum();
            outcome.tally.check(self_sum == b.wall_ns, || {
                format!(
                    "traced iteration {i}: self times sum to {self_sum} ns, wall is {} ns",
                    b.wall_ns
                )
            });
        }
        let untraced_wall = median(&untraced.iter().map(|i| i.wall_s).collect::<Vec<_>>());
        let traced_wall = median(&traced.iter().map(|i| i.wall_s).collect::<Vec<_>>());
        for &(name, unit, source) in PER_LAYER {
            let per_iter = |f: &dyn Fn(&Breakdown) -> f64| -> f64 {
                median(&breakdowns.iter().map(f).collect::<Vec<_>>())
            };
            let ns = |v: Option<&u64>| v.copied().unwrap_or(0) as f64 / 1e9;
            let value = match source {
                Source::Span => per_iter(&|b| ns(b.self_ns.get(name))),
                Source::Value => per_iter(&|b| b.values.get(name).copied().unwrap_or(0.0)),
                Source::Layer => {
                    let layer = name.trim_end_matches(".self_s");
                    per_iter(&|b| ns(b.by_layer().get(layer)))
                }
                Source::Overhead => traced_wall - untraced_wall,
                Source::TracedWall => traced_wall,
                Source::HostKernel => iter_clock.kernel_s(),
            };
            outcome.metrics.push(Metric {
                name: name.to_string(),
                unit,
                value,
            });
        }
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| {
                std::fs::write(
                    opts.out_dir.join(format!(
                        "spans-{}-{}.jsonl",
                        opts.workload.as_str(),
                        opts.seed
                    )),
                    on.to_jsonl(),
                )
            })
            .map_err(|e| format!("write spans: {e}"))?;
        outcome.breakdowns = breakdowns;
    } else {
        // CPU seconds in reference seconds, each step by the kernel
        // samples around it.
        let setups: Vec<f64> = (setup_s.iter().enumerate())
            .map(|(j, s)| s * setup_clock.scale_at(j))
            .collect();
        let rates: Vec<f64> = (untraced.iter().enumerate())
            .map(|(k, i)| i.records as f64 / (i.cpu_s * iter_clock.scale_at(k)))
            .collect();
        let latencies: Vec<f64> = (untraced.iter().enumerate())
            .flat_map(|(k, i)| {
                let scale = iter_clock.scale_at(k);
                i.latencies.iter().map(move |l| l * scale)
            })
            .collect();
        let latencies = sorted(&latencies);
        let values = [
            median(&setups),
            median(&rates),
            clock.peak_rss_mb(),
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.95),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            outcome.metrics.push(Metric {
                name: name.to_string(),
                unit,
                value,
            });
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_read_back() {
        let outcome = Outcome {
            tally: Tally {
                attempted: 12,
                failed: 1,
                failures: Vec::new(),
            },
            metrics: vec![
                Metric {
                    name: "setup_s".into(),
                    unit: "s",
                    value: 0.000123456789,
                },
                Metric {
                    name: "ingest.collector.write_amplification".into(),
                    unit: "ratio",
                    value: 250.5,
                },
            ],
            breakdowns: Vec::new(),
        };
        let back = parse_result(&outcome.to_json()).expect("parses");
        assert_eq!(back.to_json(), outcome.to_json());
        assert!(!back.correct());
        assert!(parse_result("not a result").is_none());
        assert_eq!(unit_of("analyze.lint.findings"), Some("count"));
        assert_eq!(unit_of("no.such_metric"), None);
    }
}
