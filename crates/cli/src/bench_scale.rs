//! The scale tier of `iotrace bench-pipeline` (`--ranks > 64`).
//!
//! Exercises the path the standard tier cannot: thousands of ranks,
//! 10⁸+ events, and nothing ever resident in full. Each scaling point
//! runs the **sharded** deterministic engine (`iotrace_sim::shard`,
//! one engine per 64-rank group on scoped threads); a recording
//! executor synthesizes each rank's capture record-by-record and
//! spills it straight to an IOTJ v2 spool via
//! [`iotrace_model::spill::SpillSet`], so resident state per rank is
//! bounded by the spill watermark. Analysis then streams the spool
//! back one rank at a time through the per-rank folds —
//! [`StatsFold`], [`PathFold`], [`PhaseFold`], [`GraphFold`] —
//! so no stage holds more than one rank's `Vec<TraceRecord>`.
//!
//! Checked, not just reported (folded into `determinism_ok`):
//!
//! * shard determinism — at the 32-rank point the spool produced by a
//!   4-shard run is byte-identical, file for file, to the single-shard
//!   run's;
//! * spill integrity — `fsck` over a finished spool recovers every
//!   record with no damage and no torn tail;
//! * accounting — the streamed stats fold sees exactly
//!   `ranks × events_per_rank` records at every point.
//!
//! Peak RSS is read from `/proc/self/status` after each point. `VmHWM`
//! is a process-lifetime high watermark, so a flat `vm_hwm_kb` column
//! across ascending points is the bounded-memory signal; `vm_rss_kb`
//! is the instantaneous value.

use std::path::{Path, PathBuf};

use iotrace_analysis::hotspots::PathFold;
use iotrace_analysis::phases::PhaseFold;
use iotrace_analysis::stats::StatsFold;
use iotrace_model::event::{IoCall, TraceMeta, TraceRecord};
use iotrace_model::journal::read_journal;
use iotrace_model::spill::{fsck_spool, spool_files, SpillSet};
use iotrace_provenance::GraphFold;
use iotrace_sim::engine::{ClusterConfig, ExecCtx, ExecOutcome, Executor};
use iotrace_sim::ids::RankId;
use iotrace_sim::program::{Op, OpResult, RankProgram};
use iotrace_sim::shard::{run_sharded, ShardSpec};
use iotrace_sim::time::SimDur;

/// `--ranks` above this runs the scale tier (the standard in-memory
/// tier stays at its default size; materializing thousands of ranks
/// through it is exactly what the scale tier exists to avoid).
pub const SCALE_THRESHOLD_RANKS: u32 = 64;
/// Events per rank at every scaling point: 4096 ranks × 25k ≈ 1.02e8.
pub const SCALE_EVENTS_PER_RANK: usize = 25_000;
/// Ranks per shard engine.
const RANK_GROUP: u32 = 64;
/// The canonical scaling curve; points above `--ranks` are skipped.
const SCALE_POINTS: [u32; 4] = [32, 256, 1024, 4096];
/// IOTJ segment size in the spool (≈100 segments per 25k-record rank,
/// enough for the parallel segment decoder to fan out).
const SEGMENT_RECORDS: usize = 256;
/// Spill watermark: at most this many records pending per rank writer.
const WATERMARK: usize = 1024;
/// Shard groups compared in the byte-identity check (4 shards vs 1).
const DETERMINISM_GROUPS: [u32; 2] = [8, 32];
const DETERMINISM_RANKS: u32 = 32;

pub struct ScalePoint {
    pub ranks: u32,
    pub events_per_rank: usize,
    pub total_events: usize,
    /// Engine op-polls processed across all shards.
    pub engine_events: u64,
    pub shards: usize,
    pub generate_s: f64,
    pub analyze_s: f64,
    pub spool_bytes: u64,
    pub spool_segments: u64,
    /// Highest record count any rank writer held in memory.
    pub peak_pending: usize,
    pub stats_records: usize,
    pub graph_nodes: usize,
    pub graph_edges: usize,
    pub phase_count: usize,
    pub top_path: Option<String>,
    pub vm_rss_kb: u64,
    pub vm_hwm_kb: u64,
}

impl ScalePoint {
    pub fn generate_events_per_sec(&self) -> f64 {
        self.total_events as f64 / self.generate_s.max(1e-9)
    }
    pub fn analyze_events_per_sec(&self) -> f64 {
        self.total_events as f64 / self.analyze_s.max(1e-9)
    }
}

pub struct ScaleReport {
    pub points: Vec<ScalePoint>,
    pub rank_group: u32,
    pub shard_groups_tested: Vec<u32>,
    pub shard_deterministic: bool,
    pub fsck_ok: bool,
    pub counts_ok: bool,
}

impl ScaleReport {
    pub fn ok(&self) -> bool {
        self.shard_deterministic && self.fsck_ok && self.counts_ok
    }
}

/// Run the scaling curve up to `max_ranks` (inclusive; `max_ranks`
/// itself becomes a point when it is not on the canonical curve).
pub fn run_scale(max_ranks: u32, events_per_rank: usize) -> Result<ScaleReport, String> {
    let mut ranks_at: Vec<u32> = SCALE_POINTS
        .iter()
        .copied()
        .filter(|&r| r <= max_ranks)
        .collect();
    if ranks_at.last() != Some(&max_ranks) {
        ranks_at.push(max_ranks);
    }

    let mut points = Vec::with_capacity(ranks_at.len());
    let mut counts_ok = true;
    for &ranks in &ranks_at {
        let dir = scratch_dir(&format!("point-{ranks}"));
        let _ = std::fs::remove_dir_all(&dir);
        let point = run_point(&dir, ranks, events_per_rank)?;
        let _ = std::fs::remove_dir_all(&dir);
        counts_ok &= point.stats_records == point.total_events;
        eprintln!(
            "iotrace: bench-pipeline: scale {} ranks x {} = {} events: \
             generate {:.1}s ({:.1}M ev/s, {} shards), analyze {:.1}s ({:.1}M ev/s), \
             spool {} MiB, rss {} MiB (hwm {} MiB)",
            point.ranks,
            point.events_per_rank,
            point.total_events,
            point.generate_s,
            point.generate_events_per_sec() / 1e6,
            point.shards,
            point.analyze_s,
            point.analyze_events_per_sec() / 1e6,
            point.spool_bytes >> 20,
            point.vm_rss_kb >> 10,
            point.vm_hwm_kb >> 10,
        );
        points.push(point);
    }

    // Shard determinism + spill integrity, at the cheap 32-rank point:
    // a multi-shard run must leave a spool byte-identical to the
    // single-shard run's, and a finished spool must fsck clean.
    let det_ranks = DETERMINISM_RANKS.min(max_ranks);
    let mut spools = Vec::new();
    for g in DETERMINISM_GROUPS {
        let dir = scratch_dir(&format!("det-g{g}"));
        let _ = std::fs::remove_dir_all(&dir);
        generate(&dir, det_ranks, g, events_per_rank)?;
        spools.push(dir);
    }
    let shard_deterministic = spools_identical(&spools[0], &spools[1])?;
    let fsck_ok = spool_fscks_clean(&spools[0], events_per_rank)?;
    for d in &spools {
        let _ = std::fs::remove_dir_all(d);
    }

    Ok(ScaleReport {
        points,
        rank_group: RANK_GROUP,
        shard_groups_tested: DETERMINISM_GROUPS.to_vec(),
        shard_deterministic,
        fsck_ok,
        counts_ok,
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iotrace-bench-scale-{tag}-{}", std::process::id()))
}

fn run_point(dir: &Path, ranks: u32, events_per_rank: usize) -> Result<ScalePoint, String> {
    let t0 = std::time::Instant::now();
    let gen = generate(dir, ranks, RANK_GROUP, events_per_rank)?;
    let generate_s = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    let a = analyze(dir)?;
    let analyze_s = t1.elapsed().as_secs_f64();

    let (vm_rss_kb, vm_hwm_kb) = rss_kb();
    Ok(ScalePoint {
        ranks,
        events_per_rank,
        total_events: ranks as usize * events_per_rank,
        engine_events: gen.engine_events,
        shards: gen.shards,
        generate_s,
        analyze_s,
        spool_bytes: gen.spool_bytes,
        spool_segments: gen.spool_segments,
        peak_pending: gen.peak_pending,
        stats_records: a.records,
        graph_nodes: a.graph_nodes,
        graph_edges: a.graph_edges,
        phase_count: a.phase_count,
        top_path: a.top_path,
        vm_rss_kb,
        vm_hwm_kb,
    })
}

struct GenStats {
    engine_events: u64,
    shards: usize,
    spool_bytes: u64,
    spool_segments: u64,
    peak_pending: usize,
}

/// Run `ranks` synthetic ranks through sharded engines (one engine per
/// `group` ranks), spilling every record to one IOTJ v2 spool file per
/// rank under `dir`.
fn generate(
    dir: &Path,
    ranks: u32,
    group: u32,
    events_per_rank: usize,
) -> Result<GenStats, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cfg = ClusterConfig::new((ranks as usize).div_ceil(8)).with_ranks_per_node(8);
    let make_executor = |spec: ShardSpec| SynthExec::create(dir, spec);
    let make_program = |_rid: RankId| -> Box<dyn RankProgram<(), ()>> {
        let mut left = events_per_rank;
        Box::new(move |_r: RankId, _l: &OpResult<()>| -> Op<()> {
            if left == 0 {
                Op::Exit
            } else {
                left -= 1;
                Op::Io(())
            }
        })
    };
    let outcomes = run_sharded(&cfg, ranks, group, make_executor, make_program);

    let mut g = GenStats {
        engine_events: 0,
        shards: outcomes.len(),
        spool_bytes: 0,
        spool_segments: 0,
        peak_pending: 0,
    };
    for o in outcomes {
        g.engine_events += o.report.events;
        if !o.report.deadlocked.is_empty() {
            return Err(format!(
                "scale shard at rank base {} deadlocked",
                o.spec.base
            ));
        }
        let SynthExec { spill, err, .. } = o.executor;
        if let Some(e) = err {
            return Err(e);
        }
        for st in spill.finish().map_err(|e| format!("spool finish: {e}"))? {
            g.spool_bytes += st.bytes;
            g.spool_segments += st.segments;
            g.peak_pending = g.peak_pending.max(st.peak_pending);
        }
    }
    Ok(g)
}

/// One shard's recording executor: every `Op::Io` synthesizes the next
/// record of the issuing rank's capture and appends it to that rank's
/// spool writer. Record content is a function of `(rank, index)` only,
/// so the spool cannot depend on how ranks were sharded.
struct SynthExec {
    spec: ShardSpec,
    spill: SpillSet,
    lanes: Vec<Lane>,
    err: Option<String>,
}

/// Per-rank generator state: xorshift stream, virtual timestamp, index.
struct Lane {
    state: u64,
    ts: u64,
    i: usize,
}

impl SynthExec {
    fn create(dir: &Path, spec: ShardSpec) -> SynthExec {
        let metas: Vec<TraceMeta> = spec
            .ranks()
            .map(|r| TraceMeta::new("/bench/app", r.0, r.0 / 8, "bench-scale"))
            .collect();
        let spill = match SpillSet::create(dir, &metas, SEGMENT_RECORDS, WATERMARK) {
            Ok(s) => s,
            Err(e) => panic!("scale spool create under {}: {e}", dir.display()),
        };
        let lanes = spec
            .ranks()
            .map(|r| Lane {
                state: 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(r.0).wrapping_mul(0xA24B_AED4),
                ts: 1_000 + u64::from(r.0),
                i: 0,
            })
            .collect();
        SynthExec {
            spec,
            spill,
            lanes,
            err: None,
        }
    }
}

impl Executor for SynthExec {
    type Op = ();
    type Res = ();

    fn execute(&mut self, ctx: ExecCtx<'_>, _op: &()) -> ExecOutcome<()> {
        let local = (ctx.rank.0 - self.spec.base) as usize;
        let (rec, dur) = synth_record(ctx.rank.0, &mut self.lanes[local]);
        if self.err.is_none() {
            if let Err(e) = self.spill.append(local, rec) {
                self.err = Some(format!("spool append: {e}"));
            }
        }
        ExecOutcome {
            finish: ctx.now + dur,
            result: (),
        }
    }
}

const PATHS: [&str; 6] = [
    "/pfs/ckpt/dump.0000",
    "/pfs/input/mesh.h5",
    "/pfs/out/result.dat",
    "/scratch/restart.bin",
    "/pfs/out/metrics.csv",
    "/etc/hosts",
];

/// Rank-disjoint byte region for explicit-offset I/O: 4 GiB per rank,
/// 128 KiB stride per record index (wider than the largest write, so
/// each region has exactly one writer).
fn region(rank: u32, i: usize) -> u64 {
    (u64::from(rank) << 32) | ((i as u64) << 17)
}

/// The next synthetic record of `rank`'s capture — the same shape per
/// 100-record cycle as the standard tier's workload, but with cursor
/// I/O dominating and a bounded explicit-offset fraction (8%), the
/// realistic mix for a capture whose lineage graph must stay a small
/// multiple of its access count. Reads target the region written ten
/// records earlier, so every read has exactly one covering writer.
fn synth_record(rank: u32, lane: &mut Lane) -> (TraceRecord, SimDur) {
    let i = lane.i;
    lane.i += 1;
    let mut next = || {
        lane.state ^= lane.state << 13;
        lane.state ^= lane.state >> 7;
        lane.state ^= lane.state << 17;
        lane.state
    };
    let step = 500 + next() % 1_500;
    let (call, result) = match i % 100 {
        0 => (IoCall::MpiBarrier, 0),
        1 => (
            IoCall::Open {
                path: PATHS[(next() % PATHS.len() as u64) as usize].to_string(),
                flags: 0,
                mode: 0o644,
            },
            3,
        ),
        99 => (IoCall::Close { fd: 3 }, 0),
        10 | 30 | 50 | 70 => {
            let len = 4_096 + next() % 65_536;
            (
                IoCall::Pwrite {
                    fd: 3,
                    offset: region(rank, i),
                    len,
                },
                len as i64,
            )
        }
        20 | 40 | 60 | 80 => (
            IoCall::Pread {
                fd: 3,
                offset: region(rank, i - 10),
                len: 4_096,
            },
            4_096,
        ),
        // Bulk cursor traffic goes to fd 7, a descriptor opened before
        // the capture window (never opened in-trace): stats and layer
        // accounting still see every byte, while lineage extraction —
        // which can only attribute I/O on descriptors whose open it
        // witnessed — skips it. This pins the access density at the 8%
        // explicit fraction above, so the lineage graph stays a small
        // multiple of the access count instead of the record count.
        p if p % 3 == 0 => {
            let len = 4_096 + next() % 65_536;
            (IoCall::Write { fd: 7, len }, len as i64)
        }
        p if p % 3 == 1 => {
            let len = 4_096 + next() % 16_384;
            (IoCall::Read { fd: 7, len }, len as i64)
        }
        _ => (
            IoCall::Lseek {
                fd: 7,
                offset: 0,
                whence: 0,
            },
            0,
        ),
    };
    let dur = 200 + next() % 9_800;
    lane.ts += step;
    let rec = TraceRecord {
        ts: iotrace_sim::time::SimTime::from_nanos(lane.ts),
        dur: SimDur::from_nanos(dur),
        rank,
        node: rank / 8,
        pid: 1_000 + rank,
        uid: 500,
        gid: 500,
        call,
        result,
    };
    (rec, SimDur::from_nanos(dur))
}

struct AnalyzeStats {
    records: usize,
    graph_nodes: usize,
    graph_edges: usize,
    phase_count: usize,
    top_path: Option<String>,
}

/// Stream the spool back one rank at a time through the per-rank
/// analysis folds. The only full-trace structure ever built is the
/// lineage graph itself, whose size is set by the access count, not
/// the record count.
fn analyze(dir: &Path) -> Result<AnalyzeStats, String> {
    let files = spool_files(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut stats = StatsFold::new();
    let mut hot = PathFold::new();
    let mut phases = PhaseFold::new();
    let mut graph = GraphFold::new();
    for f in &files {
        let bytes = std::fs::read(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let trace = read_journal(&bytes).map_err(|e| format!("{}: {e}", f.display()))?;
        stats.push_records(&trace.records);
        hot.push_records(&trace.records);
        phases.add_rank(&trace);
        graph.add_rank(&trace);
    }
    let st = stats.finish();
    let top = hot.top(1);
    let g = graph.finish();
    let ph = phases.finish();
    Ok(AnalyzeStats {
        records: st.records,
        graph_nodes: g.nodes.len(),
        graph_edges: g.edges.len(),
        phase_count: ph.len(),
        top_path: top.into_iter().next().map(|(path, _)| path),
    })
}

/// Byte-compare two spool directories file for file.
fn spools_identical(a: &Path, b: &Path) -> Result<bool, String> {
    let fa = spool_files(a).map_err(|e| format!("{}: {e}", a.display()))?;
    let fb = spool_files(b).map_err(|e| format!("{}: {e}", b.display()))?;
    if fa.len() != fb.len() {
        return Ok(false);
    }
    for (pa, pb) in fa.iter().zip(&fb) {
        if pa.file_name() != pb.file_name() {
            return Ok(false);
        }
        let ba = std::fs::read(pa).map_err(|e| format!("{}: {e}", pa.display()))?;
        let bb = std::fs::read(pb).map_err(|e| format!("{}: {e}", pb.display()))?;
        if ba != bb {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Every spool file fscks undamaged with all records recovered.
fn spool_fscks_clean(dir: &Path, events_per_rank: usize) -> Result<bool, String> {
    let checked = fsck_spool(dir)?;
    Ok(!checked.is_empty()
        && checked.iter().all(|(_, t, rep)| {
            !rep.is_damaged()
                && rep.records_recovered == events_per_rank
                && t.records.len() == events_per_rank
        }))
}

/// (VmRSS, VmHWM) of this process in KiB; zeros off-Linux.
fn rss_kb() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let grab = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (grab("VmRSS:"), grab("VmHWM:"))
}

/// The `"scaling"` / `"scale"` JSON fragment spliced into
/// `BENCH_pipeline.json` by `bench_pipeline::render_json`.
pub fn render_scale_json(r: &ScaleReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("  \"scaling\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"ranks\": {}, \"events_per_rank\": {}, \"total_events\": {}, \
             \"shards\": {}, \"generate_seconds\": {:.3}, \
             \"generate_records_per_sec\": {:.1}, \"analyze_seconds\": {:.3}, \
             \"analyze_records_per_sec\": {:.1}, \"spool_bytes\": {}, \
             \"spool_segments\": {}, \"peak_pending_records\": {}, \
             \"engine_events\": {}, \"graph_nodes\": {}, \"graph_edges\": {}, \
             \"phases\": {}, \"top_path\": {}, \
             \"vm_rss_kb\": {}, \"vm_hwm_kb\": {}}}",
            p.ranks,
            p.events_per_rank,
            p.total_events,
            p.shards,
            p.generate_s,
            p.generate_events_per_sec(),
            p.analyze_s,
            p.analyze_events_per_sec(),
            p.spool_bytes,
            p.spool_segments,
            p.peak_pending,
            p.engine_events,
            p.graph_nodes,
            p.graph_edges,
            p.phase_count,
            p.top_path
                .as_deref()
                .map_or_else(|| "null".to_string(), |t| format!("\"{t}\"")),
            p.vm_rss_kb,
            p.vm_hwm_kb,
        );
        out.push_str(if i + 1 < r.points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"scale\": {{");
    let _ = writeln!(out, "    \"rank_group\": {},", r.rank_group);
    let groups: Vec<String> = r.shard_groups_tested.iter().map(u32::to_string).collect();
    let _ = writeln!(out, "    \"shard_groups_tested\": [{}],", groups.join(", "));
    let _ = writeln!(
        out,
        "    \"shard_deterministic\": {},",
        r.shard_deterministic
    );
    let _ = writeln!(out, "    \"fsck_ok\": {},", r.fsck_ok);
    let _ = writeln!(out, "    \"counts_ok\": {}", r.counts_ok);
    out.push_str("  },\n");
    out
}
