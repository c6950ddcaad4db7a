//! `analyze`: offline analysis of a seeded capture already on disk —
//! per-rank IOTJ v2 journals, the container `iotrace demo` and the
//! collector write. The timed path loads every journal with fsck, merges
//! the ranks with clock correction, folds stats, hotspots and phases,
//! runs the default lint passes, builds the lineage graph and serves a
//! batch of upstream/taint queries; each query is one request.
//!
//! The capture is synthetic so its shape is a seeded input: ranks work
//! in barrier-separated phases, and a quarter of each rank's phases,
//! picked by the seed, put their I/O in files shared across ranks,
//! reading regions other ranks wrote, so the lineage and race checks have
//! cross-rank edges to find. The share and the query mix are fixed so
//! that every seed asks for the same amount of work.

use std::path::PathBuf;

use iotrace_analysis::hotspots::{by_path_interned, top_by_bytes_interned};
use iotrace_analysis::merge::{merge_by_sort, merge_corrected};
use iotrace_analysis::phases::phases;
use iotrace_analysis::skew::{ClockFit, SkewEstimate};
use iotrace_analysis::stats::TraceStats;
use iotrace_lint::{LintConfig, LintInput, Linter};
use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_model::intern::Interner;
use iotrace_model::journal::{encode_journal_versioned, records_digest};
use iotrace_provenance::{taint, upstream, LineageEdge, LineageGraph, LineageNode, TaintSource};
use iotrace_sim::rng::DetRng;
use iotrace_sim::time::{SimDur, SimTime};

use crate::host::cpu_s;
use crate::spans::Spans;
use crate::util::{decode, traces_digest, Format, Loaded};
use crate::{Iter, Size, Tally, Workload};

const RANKS: u32 = 32;
/// Records per phase: barrier, open, I/O burst, close.
const PHASE_RECORDS: usize = 128;
const PHASE_NS: u64 = 2_000_000;
const SHARED_FILES: u64 = 4;
const SEGMENT_RECORDS: usize = 256;
const QUERIES: usize = 256;

/// The default lint passes, each with the span it is timed under.
const PASSES: [(&str, &str); 8] = [
    ("fd-lifecycle", "lint.fd-lifecycle_s"),
    ("causality", "lint.causality_s"),
    ("clock", "lint.clock_s"),
    ("depgraph", "lint.depgraph_s"),
    ("anonleak", "lint.anonleak_s"),
    ("conflict", "lint.conflict_s"),
    ("policy-flow", "lint.policy-flow_s"),
    ("lineage", "lint.lineage_s"),
];

enum Query {
    Upstream(String),
    Taint(TaintSource),
}

/// Results that must repeat exactly in every iteration. The first
/// iteration's are checked against the reference implementations.
#[derive(Debug, PartialEq, Eq)]
struct Reference {
    merged: u64,
    findings: usize,
    nodes: Vec<LineageNode>,
    edges: Vec<LineageEdge>,
    query_nodes: Vec<usize>,
}

pub struct Analyze {
    files: Vec<PathBuf>,
    digests: Vec<u64>,
    skew: SkewEstimate,
    queries: Vec<Query>,
    phases: usize,
    first: Option<Reference>,
}

fn shared_path(phase: usize) -> String {
    format!("/pfs/shared/s{}.dat", phase as u64 % SHARED_FILES)
}

/// Ranks below this only write (inputs and checkpoints); the rest read
/// those and write their own outputs. Query closures stay bounded: a
/// consumer's output can only carry producer bytes, and producers read
/// nothing.
const PRODUCERS: u32 = 8;

fn own_path(rank: u32, phase: usize) -> String {
    format!("/pfs/r{rank:02}/f{}.dat", phase % 8)
}

/// One rank's capture. Phase `p` of every rank starts at the same true
/// time, so barrier exits agree across ranks.
fn synth_rank(rank: u32, phases: usize, shared: &[bool], rng: &mut DetRng) -> Trace {
    let mut t = Trace::new(TraceMeta::new(
        "/analyze_app.exe",
        rank,
        rank / 4,
        "perfbench",
    ));
    t.records.reserve(phases * PHASE_RECORDS);
    let rec = |ts: u64, dur: u64, call: IoCall, result: i64| TraceRecord {
        ts: SimTime::from_nanos(ts),
        dur: SimDur::from_nanos(dur),
        rank,
        node: rank / 4,
        pid: 1000 + rank,
        uid: 500,
        gid: 500,
        call,
        result,
    };
    let producer = rank < PRODUCERS;
    for (p, &is_shared) in shared.iter().enumerate().take(phases) {
        let mut ts = 1_000_000 + p as u64 * PHASE_NS + rng.below(50_000);
        t.records.push(rec(ts, 1_000, IoCall::MpiBarrier, 0));
        let path = if is_shared {
            shared_path(p)
        } else {
            own_path(rank, p)
        };
        ts += 2_000;
        t.records.push(rec(
            ts,
            1_500,
            IoCall::Open {
                path,
                flags: 0o102,
                mode: 0o644,
            },
            3,
        ));
        for i in 0..PHASE_RECORDS as u64 - 3 {
            ts += 2_000 + rng.below(10_000);
            let len = 4_096 * (1 + rng.below(4));
            let dur = 500 + rng.below(1_500);
            // In a shared file each producer owns a region; consumers
            // read regions written in earlier phases (flow edges) or
            // being written in this one (races).
            let call = if is_shared && !producer {
                IoCall::Pread {
                    fd: 3,
                    offset: rng.below(u64::from(PRODUCERS)) << 24 | rng.below(64) << 14,
                    len,
                }
            } else {
                IoCall::Pwrite {
                    fd: 3,
                    offset: u64::from(rank) << 24 | i << 14,
                    len,
                }
            };
            t.records.push(rec(ts, dur, call, len as i64));
        }
        ts += 5_000;
        t.records.push(rec(ts, 1_000, IoCall::Close { fd: 3 }, 0));
    }
    t
}

impl Analyze {
    pub fn setup(seed: u64, size: Size, dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let defaults = Linter::new(LintConfig::default()).pass_names();
        if defaults != PASSES.map(|(pass, _)| pass) {
            return Err(format!("the default lint passes are now {defaults:?}"));
        }
        let phases = match size {
            Size::Full => 156,
            Size::Small => 8,
        };
        let mut rng = DetRng::new(seed ^ 0xa7a1);
        // Which phases of each rank go to shared files; a quarter of them.
        let shared: Vec<Vec<bool>> = (0..RANKS)
            .map(|_| (0..phases).map(|_| rng.below(4) == 0).collect())
            .collect();
        let traces: Vec<Trace> = (0..RANKS)
            .map(|r| synth_rank(r, phases, &shared[r as usize], &mut rng))
            .collect();
        let mut files = Vec::with_capacity(traces.len());
        for t in &traces {
            let path = dir.join(format!("rank{:02}.iotj", t.meta.rank));
            std::fs::write(&path, encode_journal_versioned(t, SEGMENT_RECORDS, 2))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            files.push(path);
        }
        let mut skew = SkewEstimate {
            fits: Default::default(),
            reference_rank: 0,
        };
        for rank in 1..RANKS {
            skew.fits.insert(
                rank,
                ClockFit {
                    skew_ns: rng.below(400) as f64,
                    drift_ppm: 0.0,
                    samples: 8,
                },
            );
        }
        // Queries whose closures stay bounded: upstream of shared and
        // consumer files, taint of a consumer rank or file.
        let consumer =
            |rng: &mut DetRng| PRODUCERS + rng.below(u64::from(RANKS - PRODUCERS)) as u32;
        let queries = (0..QUERIES)
            .map(|i| match i % 4 {
                0 => Query::Upstream(shared_path(rng.below(SHARED_FILES) as usize)),
                1 => Query::Upstream(own_path(consumer(&mut rng), rng.below(8) as usize)),
                2 => Query::Taint(TaintSource::Rank(consumer(&mut rng))),
                _ => Query::Taint(TaintSource::Path(own_path(
                    consumer(&mut rng),
                    rng.below(8) as usize,
                ))),
            })
            .collect();
        Ok(Analyze {
            files,
            digests: traces_digest(&traces),
            skew,
            queries,
            phases,
            first: None,
        })
    }
}

impl Workload for Analyze {
    fn iteration(&mut self, sp: &mut Spans, tally: &mut Tally) -> Result<Iter, String> {
        let iter = sp.begin_iteration();
        let blobs = sp
            .time("disk.read_s", || {
                self.files
                    .iter()
                    .map(std::fs::read)
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("read journals: {e}"))?;
        let mut traces = Vec::with_capacity(blobs.len());
        for bytes in &blobs {
            let format = Format::detect(bytes);
            match sp.time(format.span(), || decode(format, bytes, None))? {
                Loaded::Traces(ts) => traces.extend(ts),
                Loaded::Replayable(rt) => traces.extend(rt.traces),
            }
        }
        let merged = sp.time("analysis.merge_s", || merge_corrected(&traces, &self.skew));
        let stats = sp.time("analysis.stats_s", || TraceStats::from_records(&merged));
        let top = sp.time("analysis.hotspots_s", || {
            let mut paths = Interner::new();
            let by_path = by_path_interned(&merged, &mut paths);
            top_by_bytes_interned(&by_path, &paths, 10).len()
        });
        let phase_list = sp.time("analysis.phases_s", || phases(&traces));

        let input = LintInput::from_traces(&traces);
        // The default passes one at a time, in the untraced run as in the
        // traced one, so each pass gets its own span and both runs do the
        // same work.
        let lint = sp.enter("lint.run_s");
        let mut findings = 0;
        for (pass, span) in PASSES {
            let linter = Linter::new(LintConfig::default()).keep_passes(&[pass])?;
            findings += sp.time(span, || linter.run(&input)).diagnostics.len();
        }
        sp.exit(lint);

        let graph = sp.time("provenance.build_s", || LineageGraph::build(&traces, None));
        let mut latencies = Vec::with_capacity(self.queries.len());
        let mut query_nodes = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            let t0 = cpu_s();
            let lineage = sp.time("provenance.query_s", || match q {
                Query::Upstream(path) => upstream(&graph, path),
                Query::Taint(source) => taint(&graph, source),
            });
            latencies.push(cpu_s() - t0);
            query_nodes.push(lineage.nodes.len());
        }
        let elapsed = sp.end_iteration(iter);

        let records = merged.len() as u64;
        let bytes_read: usize = blobs.iter().map(Vec::len).sum();
        // Steps that returned a value: one load per file, merge, stats,
        // hotspots, phases, lint, graph build, each query.
        tally.ok(traces.len() as u64 + 6 + self.queries.len() as u64);
        tally.check(traces_digest(&traces) == self.digests, || {
            "journals read back differ from the generated capture".into()
        });
        tally.check(
            stats.records == merged.len() && top > 0 && phase_list.len() + 1 == self.phases,
            || {
                format!(
                    "folds disagree: {} stats records of {}, {top} hotspots, {} phases \
                     between {} barriers",
                    stats.records,
                    merged.len(),
                    phase_list.len(),
                    self.phases
                )
            },
        );
        sp.set("model.bytes_read", bytes_read as f64);
        sp.set("lint.findings", findings as f64);
        sp.set("provenance.nodes", graph.nodes.len() as f64);
        sp.set("provenance.edges", graph.edges.len() as f64);
        if self.first.is_none() {
            let reference = merge_by_sort(&traces, &self.skew);
            tally.check(reference == merged, || {
                "merge_corrected differs from merge_by_sort".into()
            });
            let serial = LineageGraph::build_with_workers(&traces, None, 1);
            tally.check(
                serial.nodes == graph.nodes && serial.edges == graph.edges,
                || "LineageGraph::build differs from a one-worker build".into(),
            );
        }
        let now = Reference {
            merged: records_digest(&merged),
            findings,
            nodes: graph.nodes,
            edges: graph.edges,
            query_nodes,
        };
        match &self.first {
            None => self.first = Some(now),
            Some(first) => tally.check(*first == now, || {
                "analysis results changed between iterations".into()
            }),
        }
        sp.set("provenance.queries", self.queries.len() as f64);
        Ok(Iter {
            wall_s: elapsed.wall_s,
            cpu_s: elapsed.cpu_s,
            records,
            latencies,
        })
    }
}
