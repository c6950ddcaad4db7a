//! Lineage queries: upstream (what produced this file?) and taint
//! (what did this rank or file influence?).
//!
//! Both are transitive closures over the lineage graph's flow and dep
//! edges, *widened* with a rank-granularity rule: a rank's write may
//! carry anything the rank previously read or received (dep-edge
//! target), and a rank's read or receive taints everything the rank
//! subsequently writes or sends (dep-edge source). That widening is the
//! process-level provenance approximation of the trace2e model — the
//! trace records which bytes moved, not which bytes the *program* copied
//! between buffers, so the sound choice is to assume it may have copied
//! any of them.
//!
//! The walks are worklist closures that cost time in proportion to what
//! they return. Seeds come from indexes built with the graph (a path's
//! reads, a rank's nodes, a file's final segments), never from a scan of
//! every node. Monotone per-rank absorption cursors over record-sorted
//! lists step over each absorbed node once, and the visited set is a
//! dense bitset whose set bits are cleared through the visited list, so
//! a query that reaches `k` nodes costs `O(k log k)` plus the edges of
//! those nodes. Output is deterministic: node ids sorted ascending.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{LineageGraph, NodeId, NodeKind};

/// What a forward (taint) query starts from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaintSource {
    /// Everything a rank did: its accesses and dep endpoints.
    Rank(u32),
    /// Everything that consumed a file's bytes.
    Path(String),
}

impl TaintSource {
    /// Parse a CLI spec: `rank:<n>` or a path.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.strip_prefix("rank:") {
            Some(n) => n
                .parse::<u32>()
                .map(TaintSource::Rank)
                .map_err(|_| format!("bad taint source `{spec}`: rank:<n> needs an integer")),
            None if spec.starts_with('/') => Ok(TaintSource::Path(spec.to_string())),
            None => Err(format!(
                "bad taint source `{spec}`: expected rank:<n> or an absolute path"
            )),
        }
    }
}

impl std::fmt::Display for TaintSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaintSource::Rank(r) => write!(f, "rank {r}"),
            TaintSource::Path(p) => write!(f, "{p}"),
        }
    }
}

/// A query result: the reached node set, ascending by node id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lineage {
    pub nodes: Vec<NodeId>,
}

impl Lineage {
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Distinct ranks among reached nodes, ascending.
    pub fn ranks(&self, g: &LineageGraph) -> Vec<u32> {
        let set: BTreeSet<u32> = self
            .nodes
            .iter()
            .map(|&id| g.nodes[id as usize].rank)
            .collect();
        set.into_iter().collect()
    }
}

thread_local! {
    /// A visited bitset reused by every query on this thread, with every
    /// bit clear between queries: a query clears only the bits it set,
    /// so repeated queries (`policy-flow` runs one per sink) cost their
    /// closures, not the graph size each time. A query that panics
    /// never returns the set, and the next one starts from a fresh one.
    static VISITED_BITS: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// The visited set of one walk: a dense bitset over node ids plus the
/// visited ids in insertion order, which is also the walk's worklist.
struct Visited {
    bits: Vec<u64>,
    ids: Vec<NodeId>,
}

impl Visited {
    fn new(g: &LineageGraph) -> Self {
        let mut bits = VISITED_BITS.take();
        let words = g.nodes.len().div_ceil(64);
        if bits.len() < words {
            bits.resize(words, 0);
        }
        Visited {
            bits,
            ids: Vec::new(),
        }
    }

    fn insert(&mut self, id: NodeId) {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.ids.push(id);
        }
    }

    fn into_lineage(self) -> Lineage {
        let Visited { mut bits, mut ids } = self;
        for &id in &ids {
            bits[id as usize / 64] = 0;
        }
        VISITED_BITS.set(bits);
        ids.sort_unstable();
        Lineage { nodes: ids }
    }
}

/// Full upstream lineage of `path`'s **final** bytes: every node whose
/// data may have flowed into the file as the capture left it.
/// Overwritten-then-replaced bytes do not contribute.
pub fn upstream(g: &LineageGraph, path: &str) -> Lineage {
    upstream_of_nodes(g, g.final_segments(path).into_iter().map(|(_, _, o)| o))
}

/// Upstream closure seeded at explicit nodes (the `policy-flow` lint
/// pass seeds every write to a sink path). Seeds are included in the
/// result.
pub fn upstream_of_nodes(g: &LineageGraph, seeds: impl IntoIterator<Item = NodeId>) -> Lineage {
    let mut seen = Visited::new(g);
    seeds.into_iter().for_each(|id| seen.insert(id));
    // Monotone absorption cursors: next unabsorbed index per rank.
    let mut read_ptr: BTreeMap<u32, usize> = BTreeMap::new();
    let mut dep_ptr: BTreeMap<u32, usize> = BTreeMap::new();
    let mut next = 0;
    while let Some(&id) = seen.ids.get(next) {
        next += 1;
        for e in g.in_edges(id) {
            seen.insert(e.from);
        }
        let n = g.nodes[id as usize];
        if matches!(n.kind, NodeKind::Write | NodeKind::Op) {
            // Anything this rank read strictly before the write, and any
            // dep edge it waited on at or before it, may be in the data.
            let rank = g.rank_index(n.rank);
            let ptr = read_ptr.entry(n.rank).or_insert(0);
            while *ptr < rank.reads.len() && g.nodes[rank.reads[*ptr] as usize].record < n.record {
                seen.insert(rank.reads[*ptr]);
                *ptr += 1;
            }
            let ptr = dep_ptr.entry(n.rank).or_insert(0);
            while *ptr < rank.dep_targets.len()
                && g.nodes[rank.dep_targets[*ptr] as usize].record <= n.record
            {
                seen.insert(rank.dep_targets[*ptr]);
                *ptr += 1;
            }
        }
    }
    seen.into_lineage()
}

/// Everything downstream of `source`: nodes whose data may contain
/// bytes the source produced or touched.
pub fn taint(g: &LineageGraph, source: &TaintSource) -> Lineage {
    let mut seen = Visited::new(g);
    let seeds = match source {
        TaintSource::Rank(rank) => g.rank_index(*rank).nodes.as_slice(),
        TaintSource::Path(path) => g.reads_of_path(path),
    };
    seeds.iter().for_each(|&id| seen.insert(id));
    // Absorption cursors walking per-rank lists from the end downward.
    let mut write_ptr: BTreeMap<u32, usize> = BTreeMap::new();
    let mut dep_ptr: BTreeMap<u32, usize> = BTreeMap::new();
    let mut next = 0;
    while let Some(&id) = seen.ids.get(next) {
        next += 1;
        for e in g.out_edges(id) {
            seen.insert(e.to);
        }
        let n = g.nodes[id as usize];
        if matches!(n.kind, NodeKind::Read | NodeKind::Op) {
            // Data received here may be in every later write by this
            // rank, and may ride out over every later dep edge it sources.
            let rank = g.rank_index(n.rank);
            let ptr = write_ptr.entry(n.rank).or_insert(rank.writes.len());
            while *ptr > 0 && g.nodes[rank.writes[*ptr - 1] as usize].record > n.record {
                *ptr -= 1;
                seen.insert(rank.writes[*ptr]);
            }
            let ptr = dep_ptr.entry(n.rank).or_insert(rank.dep_sources.len());
            while *ptr > 0 && g.nodes[rank.dep_sources[*ptr - 1] as usize].record >= n.record {
                *ptr -= 1;
                seen.insert(rank.dep_sources[*ptr]);
            }
        }
    }
    seen.into_lineage()
}

/// Deterministic human rendering of an upstream query.
pub fn render_upstream(g: &LineageGraph, path: &str, lineage: &Lineage) -> String {
    let finals = g.final_segments(path);
    if finals.is_empty() {
        return format!("no recorded producers for {path}\n");
    }
    let ranks = lineage.ranks(g);
    let mut out = format!(
        "upstream lineage of {path}: {} node(s) across {} rank(s)\n",
        lineage.nodes.len(),
        ranks.len()
    );
    out.push_str("final bytes:\n");
    for (s, e, owner) in finals {
        let n = &g.nodes[owner as usize];
        out.push_str(&format!(
            "  [{s}, {e}) <- rank{}#{} {}\n",
            n.rank, n.record, n.op
        ));
    }
    out.push_str("lineage:\n");
    for &id in &lineage.nodes {
        out.push_str(&format!("  {}\n", g.label(id)));
    }
    out
}

/// Deterministic human rendering of a taint query.
pub fn render_taint(g: &LineageGraph, source: &TaintSource, lineage: &Lineage) -> String {
    let mut out = format!(
        "taint of {source}: {} downstream node(s)\n",
        lineage.nodes.len()
    );
    for &id in &lineage.nodes {
        out.push_str(&format!("  {}\n", g.label(id)));
    }
    let files: BTreeSet<&str> = lineage
        .nodes
        .iter()
        .filter(|&&id| g.nodes[id as usize].kind == NodeKind::Write)
        .filter_map(|&id| g.path_of(id))
        .collect();
    if !files.is_empty() {
        out.push_str("files reached:\n");
        for f in files {
            out.push_str(&format!("  {f}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
    use iotrace_partrace::deps::{DependencyEdge, DependencyMap};
    use iotrace_sim::time::{SimDur, SimTime};

    fn trace_of(rank: u32, base_us: u64, calls: Vec<(IoCall, i64)>) -> Trace {
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "test"));
        for (i, (call, result)) in calls.into_iter().enumerate() {
            t.records.push(TraceRecord {
                ts: SimTime::from_micros(base_us + i as u64 * 10),
                dur: SimDur::from_nanos(100),
                rank,
                node: rank,
                pid: 1,
                uid: 0,
                gid: 0,
                call,
                result,
            });
        }
        t
    }

    fn open(path: &str) -> (IoCall, i64) {
        (
            IoCall::Open {
                path: path.into(),
                flags: 0,
                mode: 0,
            },
            3,
        )
    }

    fn pwrite(off: u64, len: u64) -> (IoCall, i64) {
        (
            IoCall::Pwrite {
                fd: 3,
                offset: off,
                len,
            },
            len as i64,
        )
    }

    fn pread(off: u64, len: u64) -> (IoCall, i64) {
        (
            IoCall::Pread {
                fd: 3,
                offset: off,
                len,
            },
            len as i64,
        )
    }

    /// Three-stage pipeline: rank0 writes /a; rank1 reads /a, writes /b;
    /// rank2 reads /b, writes /out.
    fn pipeline() -> Vec<Trace> {
        vec![
            trace_of(0, 0, vec![open("/a"), pwrite(0, 100)]),
            trace_of(
                1,
                1000,
                vec![open("/a"), pread(0, 100), open("/b"), pwrite(0, 100)],
            ),
            trace_of(
                2,
                2000,
                vec![open("/b"), pread(0, 100), open("/out"), pwrite(0, 100)],
            ),
        ]
    }

    #[test]
    fn upstream_walks_the_whole_pipeline() {
        let g = LineageGraph::build(&pipeline(), None);
        let l = upstream(&g, "/out");
        assert_eq!(l.ranks(&g), vec![0, 1, 2]);
        // write /a, read /a, write /b, read /b, write /out
        assert_eq!(l.nodes.len(), 5);
        let text = render_upstream(&g, "/out", &l);
        assert!(text.contains("3 rank(s)"), "{text}");
        assert!(text.contains("rank0#1 SYS_pwrite /a"), "{text}");
    }

    #[test]
    fn upstream_ignores_overwritten_bytes() {
        // rank0 writes /f, rank1 fully overwrites it without reading.
        let ts = vec![
            trace_of(0, 0, vec![open("/f"), pwrite(0, 100)]),
            trace_of(1, 1000, vec![open("/f"), pwrite(0, 100)]),
        ];
        let g = LineageGraph::build(&ts, None);
        let l = upstream(&g, "/f");
        assert_eq!(l.ranks(&g), vec![1]);
    }

    #[test]
    fn taint_of_rank_reaches_downstream_files_only() {
        let g = LineageGraph::build(&pipeline(), None);
        let l = taint(&g, &TaintSource::Rank(1));
        let text = render_taint(&g, &TaintSource::Rank(1), &l);
        assert!(text.contains("/b"), "{text}");
        assert!(text.contains("/out"), "{text}");
        // rank0's write to /a is *upstream* of rank1, not downstream.
        assert!(!l.nodes.iter().any(|&id| g.nodes[id as usize].rank == 0));
    }

    #[test]
    fn taint_of_path_follows_readers() {
        let g = LineageGraph::build(&pipeline(), None);
        let l = taint(&g, &TaintSource::Path("/a".into()));
        // read /a (rank1), write /b, read /b (rank2), write /out
        assert_eq!(l.nodes.len(), 4);
        assert_eq!(l.ranks(&g), vec![1, 2]);
    }

    #[test]
    fn dep_edges_carry_taint_across_ranks() {
        // rank0 reads /secret then "sends" (dep edge from its read) to
        // rank1, which then writes /leak. No shared file connects them.
        let ts = vec![
            trace_of(0, 0, vec![open("/secret"), pwrite(0, 10), pread(0, 10)]),
            trace_of(1, 1000, vec![open("/leak"), pwrite(0, 10)]),
        ];
        let deps = DependencyMap {
            edges: vec![DependencyEdge {
                from_node: 0,
                from_rank: 0,
                from_op: 2,
                to_rank: 1,
                to_op: 0,
                shift: SimDur::from_millis(1),
            }],
        };
        let g = LineageGraph::build(&ts, Some(&deps));
        let l = taint(&g, &TaintSource::Path("/secret".into()));
        let text = render_taint(&g, &TaintSource::Path("/secret".into()), &l);
        assert!(text.contains("/leak"), "{text}");
        // And the reverse query sees the secret upstream of /leak.
        let up = upstream(&g, "/leak");
        assert_eq!(up.ranks(&g), vec![0, 1]);
    }

    #[test]
    fn taint_source_parsing() {
        assert_eq!(TaintSource::parse("rank:3").unwrap(), TaintSource::Rank(3));
        assert_eq!(
            TaintSource::parse("/pfs/x").unwrap(),
            TaintSource::Path("/pfs/x".into())
        );
        assert!(TaintSource::parse("rank:x").is_err());
        assert!(TaintSource::parse("relative/path").is_err());
    }

    #[test]
    fn unknown_path_renders_gracefully() {
        let g = LineageGraph::build(&pipeline(), None);
        let l = upstream(&g, "/nope");
        assert!(l.is_empty());
        assert!(render_upstream(&g, "/nope", &l).contains("no recorded producers"));
    }
}
