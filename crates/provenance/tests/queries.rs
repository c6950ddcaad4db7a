//! Lineage queries against a naive fixpoint oracle.
//!
//! The oracle restates the widened relation of DESIGN.md §10.2 with no
//! index and no cursor: starting from the seeds, it repeats until
//! nothing changes —
//!
//! * `upstream`: the source of every edge into the set joins it, and a
//!   write or op node of the set pulls in every read of its rank at an
//!   earlier record and every dep-edge target of its rank at the same
//!   or an earlier record;
//! * `taint`: the target of every edge out of the set joins it, and a
//!   read or op node pulls in every write of its rank at a later record
//!   and every dep-edge source of its rank at the same or a later record.
//!
//! Seeds are derived from the graph's public node list alone: the last
//! writer of each byte of a file (`upstream`), every node of a rank
//! (`taint(Rank)`), every read of a file (`taint(Path)`).
//!
//! Captures are random and multi-rank, with jittered timestamps (so a
//! rank's records are not in node-id order) and dependency maps whose
//! edges may dangle: an edge with one endpoint outside the capture adds
//! its other endpoint as an `Op` node with no edge at all, which
//! `taint(Rank)` must still return.

use std::collections::BTreeSet;

use proptest::prelude::*;

use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_partrace::deps::{DependencyEdge, DependencyMap};
use iotrace_provenance::{
    taint, upstream, upstream_of_nodes, EdgeKind, LineageGraph, NodeId, NodeKind, TaintSource,
};
use iotrace_sim::time::{SimDur, SimTime};

/// `(rank, epoch, path, kind, start, len, jitter)`; kinds 0–1 write,
/// 2–3 read, 4 open (a record that is not an access).
type RawOp = (u8, u8, u8, u8, u8, u8, u8);
/// `(from_rank, from_op, to_rank, to_op)`; rank 3 is not in the capture
/// and ops past a rank's last record do not exist.
type RawDep = (u8, u8, u8, u8);

const RANKS: u32 = 3;
const EPOCHS: usize = 3;
/// Paths the queries ask about: four shared files, one only rank 0
/// writes and nobody reads, one only opened, and one nobody touches.
const PATHS: [&str; 7] = ["/p0", "/p1", "/p2", "/p3", "/w", "/opened", "/nope"];

fn record(rank: u32, ts: u64, call: IoCall) -> TraceRecord {
    TraceRecord {
        ts: SimTime::from_nanos(ts),
        dur: SimDur::from_nanos(100),
        rank,
        node: rank,
        pid: 1,
        uid: 0,
        gid: 0,
        call,
        result: 0,
    }
}

fn materialize(raw: &[RawOp], raw_deps: &[RawDep]) -> (Vec<Trace>, DependencyMap) {
    let mut traces = Vec::new();
    for rank in 0..RANKS {
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "prop"));
        for epoch in 0..EPOCHS {
            for &(r, e, path, kind, start, len, jitter) in raw {
                if u32::from(r) % RANKS != rank || usize::from(e) % EPOCHS != epoch {
                    continue;
                }
                let path = format!("/p{}", path % 4);
                let offset = u64::from(start) % 48;
                let len = u64::from(len) % 16 + 1;
                let call = match kind % 5 {
                    0 | 1 => IoCall::VfsWritePage { path, offset, len },
                    2 | 3 => IoCall::VfsReadPage { path, offset, len },
                    _ => IoCall::Open {
                        path,
                        flags: 0,
                        mode: 0,
                    },
                };
                // Not monotone within a rank: node-id order and record
                // order disagree.
                let ts = u64::from(jitter) * 1_000 + t.records.len() as u64;
                t.records.push(record(rank, ts, call));
            }
            if epoch + 1 < EPOCHS {
                let ts = t.records.len() as u64;
                t.records.push(record(rank, ts, IoCall::MpiBarrier));
            }
        }
        if rank == 0 {
            let ts = 10_000 + t.records.len() as u64;
            t.records.push(record(
                0,
                ts,
                IoCall::VfsWritePage {
                    path: "/w".into(),
                    offset: 0,
                    len: 8,
                },
            ));
            t.records.push(record(
                0,
                ts + 1,
                IoCall::Open {
                    path: "/opened".into(),
                    flags: 0,
                    mode: 0,
                },
            ));
        }
        traces.push(t);
    }
    let edges = raw_deps
        .iter()
        .map(|&(from_rank, from_op, to_rank, to_op)| DependencyEdge {
            from_node: 0,
            from_rank: u32::from(from_rank % 4),
            from_op: usize::from(from_op % 24),
            to_rank: u32::from(to_rank % 4),
            to_op: usize::from(to_op % 24),
            shift: SimDur::from_nanos(1),
        })
        .collect();
    (traces, DependencyMap { edges })
}

/// Which direction a closure runs in.
#[derive(Clone, Copy)]
enum Dir {
    Upstream,
    Taint,
}

/// Naive fixpoint of the widened relation, `O(rounds × nodes²)`.
fn closure(g: &LineageGraph, seeds: impl IntoIterator<Item = NodeId>, dir: Dir) -> Vec<NodeId> {
    let deps: Vec<(NodeId, NodeId)> = g
        .edges
        .iter()
        .filter(|e| matches!(e.kind, EdgeKind::Dep { .. }))
        .map(|e| (e.from, e.to))
        .collect();
    let dep_source = |id: NodeId| deps.iter().any(|&(from, _)| from == id);
    let dep_target = |id: NodeId| deps.iter().any(|&(_, to)| to == id);
    let mut set: BTreeSet<NodeId> = seeds.into_iter().collect();
    loop {
        let before = set.len();
        for e in &g.edges {
            match dir {
                Dir::Upstream if set.contains(&e.to) => set.insert(e.from),
                Dir::Taint if set.contains(&e.from) => set.insert(e.to),
                _ => false,
            };
        }
        for n in set.clone() {
            let n = g.nodes[n as usize];
            for (m, other) in g.nodes.iter().enumerate() {
                let m = m as NodeId;
                if other.rank != n.rank {
                    continue;
                }
                let absorbed = match dir {
                    Dir::Upstream => {
                        matches!(n.kind, NodeKind::Write | NodeKind::Op)
                            && ((other.kind == NodeKind::Read && other.record < n.record)
                                || (dep_target(m) && other.record <= n.record))
                    }
                    Dir::Taint => {
                        matches!(n.kind, NodeKind::Read | NodeKind::Op)
                            && ((other.kind == NodeKind::Write && other.record > n.record)
                                || (dep_source(m) && other.record >= n.record))
                    }
                };
                if absorbed {
                    set.insert(m);
                }
            }
        }
        if set.len() == before {
            return set.into_iter().collect();
        }
    }
}

/// Nodes of kind `kind` that access `path`.
fn accesses_of(g: &LineageGraph, path: &str, kind: NodeKind) -> Vec<NodeId> {
    (0..g.nodes.len() as NodeId)
        .filter(|&id| g.nodes[id as usize].kind == kind && g.path_of(id) == Some(path))
        .collect()
}

/// The last writer of every byte of `path`: node ids are replay order,
/// so the highest id among the writes covering a byte.
fn final_writers(g: &LineageGraph, path: &str) -> BTreeSet<NodeId> {
    let writes = accesses_of(g, path, NodeKind::Write);
    let end = writes
        .iter()
        .map(|&id| g.nodes[id as usize].end)
        .max()
        .unwrap_or(0);
    (0..end)
        .filter_map(|byte| {
            writes.iter().copied().rfind(|&id| {
                let n = &g.nodes[id as usize];
                n.start <= byte && byte < n.end
            })
        })
        .collect()
}

proptest! {
    #[test]
    fn queries_match_the_naive_fixpoint(
        raw in prop::collection::vec(
            (0u8..6, 0u8..6, 0u8..8, 0u8..5, 0u8..48, 0u8..16, 0u8..8),
            0..20,
        ),
        raw_deps in prop::collection::vec((0u8..4, 0u8..24, 0u8..4, 0u8..24), 0..6),
    ) {
        let (traces, deps) = materialize(&raw, &raw_deps);
        for deps in [None, Some(&deps)] {
            let g = LineageGraph::build(&traces, deps);
            for path in PATHS {
                let seeds = final_writers(&g, path);
                let (got, want) = (upstream(&g, path).nodes, closure(&g, seeds, Dir::Upstream));
                prop_assert!(got == want, "upstream of {path}: {got:?}, oracle {want:?}");
                // `policy-flow` seeds every write to a sink.
                let writes = accesses_of(&g, path, NodeKind::Write);
                let got = upstream_of_nodes(&g, writes.iter().copied()).nodes;
                let want = closure(&g, writes, Dir::Upstream);
                prop_assert!(got == want, "upstream of the writes to {path}: {got:?}, oracle {want:?}");
                let reads = accesses_of(&g, path, NodeKind::Read);
                let got = taint(&g, &TaintSource::Path(path.into())).nodes;
                let want = closure(&g, reads, Dir::Taint);
                prop_assert!(got == want, "taint of {path}: {got:?}, oracle {want:?}");
            }
            for rank in 0..=RANKS {
                let own = (0..g.nodes.len() as NodeId).filter(|&id| g.nodes[id as usize].rank == rank);
                let got = taint(&g, &TaintSource::Rank(rank)).nodes;
                let want = closure(&g, own, Dir::Taint);
                prop_assert!(got == want, "taint of rank {rank}: {got:?}, oracle {want:?}");
            }
        }
    }
}
