//! Per-file hotspot analysis: which paths receive the most operations,
//! bytes and time — the "which file is hot" question every I/O debugging
//! session starts with.

use std::cmp::Ordering;
use std::collections::HashMap;

use iotrace_model::event::TraceRecord;
use iotrace_model::intern::{Interner, Sym};
use iotrace_sim::time::SimDur;

/// Aggregate for one path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathStats {
    pub ops: u64,
    pub bytes: u64,
    pub time: SimDur,
}

/// Per-path aggregation keyed by symbols of the caller's interner:
/// one [`PathFold`] over `records`, interning into `paths`. Each
/// distinct path is interned once; every record after that hashes and
/// copies a `u32` instead of a `String`.
pub fn by_path_interned<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
    paths: &mut Interner,
) -> HashMap<Sym, PathStats> {
    let mut fold = PathFold {
        paths: std::mem::take(paths),
        ..PathFold::default()
    };
    fold.push_records(records);
    *paths = fold.paths;
    fold.stats
}

/// The hotspot fold: per-path [`PathStats`] keyed by symbols of the
/// fold's own [`Interner`], plus the open-fd table. Records without a
/// path (fd-based calls) are attributed via the most recent successful
/// `open` of that fd within the same rank.
///
/// Pushing a record stream in any batching yields the same fold as one
/// push of the whole stream — the collector folds each sealed segment
/// as it lands, and an `open` in one segment names the I/O of the next.
/// [`PathFold::merge`] combines folds over *rank-aligned* parts (no
/// rank's records split across two parts) in any order: the resolved
/// [`PathFold::top`] is the same as one fold over all the records.
#[derive(Clone, Debug, Default)]
pub struct PathFold {
    stats: HashMap<Sym, PathStats>,
    paths: Interner,
    /// (rank, fd) -> path of the most recent successful open.
    open_fds: HashMap<(u32, i64), Sym>,
}

impl PathFold {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push_records<'a>(&mut self, records: impl IntoIterator<Item = &'a TraceRecord>) {
        let paths = &mut self.paths;
        let open_fds = &mut self.open_fds;
        for r in records {
            use iotrace_model::event::IoCall::*;
            let path: Option<Sym> = match &r.call {
                Open { path, .. } | MpiFileOpen { path, .. } => {
                    let sym = paths.intern(path);
                    if r.result >= 0 {
                        open_fds.insert((r.rank, r.result), sym);
                    }
                    Some(sym)
                }
                Close { fd } | MpiFileClose { fd } => open_fds.remove(&(r.rank, *fd)),
                Read { fd, .. }
                | Write { fd, .. }
                | Pread { fd, .. }
                | Pwrite { fd, .. }
                | Lseek { fd, .. }
                | Fsync { fd }
                | MpiFileWriteAt { fd, .. }
                | MpiFileReadAt { fd, .. } => open_fds.get(&(r.rank, *fd)).copied(),
                _ => r.call.path().map(|p| paths.intern(p)),
            };
            if let Some(p) = path {
                let e = self.stats.entry(p).or_default();
                e.ops += 1;
                e.bytes += r.call.bytes();
                e.time += r.dur;
            }
        }
    }

    /// Absorb `other`'s interner into this fold's and add its per-path
    /// totals and open fds under the remapped symbols.
    pub fn merge(&mut self, other: &PathFold) {
        let remap = self.paths.absorb(&other.paths);
        let sym = |s: Sym| remap[s.id() as usize];
        for (&s, ps) in &other.stats {
            let e = self.stats.entry(sym(s)).or_default();
            e.ops += ps.ops;
            e.bytes += ps.bytes;
            e.time += ps.time;
        }
        for (&key, &s) in &other.open_fds {
            self.open_fds.insert(key, sym(s));
        }
    }

    /// The `n` paths with the most bytes moved, resolved, per
    /// [`top_by_bytes`].
    pub fn top(&self, n: usize) -> Vec<(String, PathStats)> {
        top_by_bytes_interned(&self.stats, &self.paths, n)
            .into_iter()
            .map(|(sym, s)| (self.paths.resolve(sym).to_string(), s))
            .collect()
    }
}

/// Per-path aggregation with `String` keys — a thin resolve layer over
/// [`PathFold`] kept for callers that want owned paths.
pub fn by_path<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
) -> HashMap<String, PathStats> {
    let mut fold = PathFold::new();
    fold.push_records(records);
    let PathFold { stats, paths, .. } = fold;
    stats
        .into_iter()
        .map(|(sym, s)| (paths.resolve(sym).to_string(), s))
        .collect()
}

/// The `n` entries with the most bytes moved, descending; ties break by
/// `by_name`, ascending.
///
/// Uses partial selection: `select_nth_unstable_by` pulls the top `n`
/// to the front in O(len), then only that slice is sorted — O(len +
/// n log n) instead of sorting the whole map. The comparator is a total
/// order (names are unique map keys), so the unstable selection cannot
/// perturb the result.
fn top_n<K>(
    mut v: Vec<(K, PathStats)>,
    n: usize,
    by_name: impl Fn(&K, &K) -> Ordering,
) -> Vec<(K, PathStats)> {
    let cmp = |a: &(K, PathStats), b: &(K, PathStats)| {
        b.1.bytes.cmp(&a.1.bytes).then_with(|| by_name(&a.0, &b.0))
    };
    if n == 0 {
        return Vec::new();
    }
    if n < v.len() {
        v.select_nth_unstable_by(n - 1, cmp);
        v.truncate(n);
    }
    v.sort_by(cmp);
    v
}

/// The `n` paths with the most bytes moved, descending; ties break by
/// path ascending.
pub fn top_by_bytes(stats: &HashMap<String, PathStats>, n: usize) -> Vec<(String, PathStats)> {
    let v = stats.iter().map(|(k, s)| (k.clone(), s.clone())).collect();
    top_n(v, n, String::cmp)
}

/// [`top_by_bytes`] over interned stats. Ties still break by *resolved*
/// path (lexicographic), not symbol id, so the ranking matches the
/// `String`-keyed variant exactly.
pub fn top_by_bytes_interned(
    stats: &HashMap<Sym, PathStats>,
    paths: &Interner,
    n: usize,
) -> Vec<(Sym, PathStats)> {
    let v = stats.iter().map(|(&k, s)| (k, s.clone())).collect();
    top_n(v, n, |&a, &b| paths.resolve(a).cmp(paths.resolve(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotrace_model::event::IoCall;
    use iotrace_sim::time::SimTime;

    fn rec(call: IoCall, result: i64) -> TraceRecord {
        TraceRecord {
            ts: SimTime::ZERO,
            dur: SimDur::from_micros(10),
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
    fn fd_calls_attributed_to_opened_path() {
        let recs = vec![
            rec(
                IoCall::Open {
                    path: "/data/a".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            rec(IoCall::Write { fd: 3, len: 100 }, 100),
            rec(IoCall::Write { fd: 3, len: 50 }, 50),
            rec(IoCall::Close { fd: 3 }, 0),
            // fd 3 reused for another file
            rec(
                IoCall::Open {
                    path: "/data/b".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            rec(IoCall::Write { fd: 3, len: 7 }, 7),
        ];
        let stats = by_path(&recs);
        assert_eq!(stats["/data/a"].bytes, 150);
        assert_eq!(stats["/data/a"].ops, 4); // open + 2 writes + close
        assert_eq!(stats["/data/b"].bytes, 7);
    }

    #[test]
    fn failed_open_does_not_bind_fd() {
        let recs = vec![
            rec(
                IoCall::Open {
                    path: "/missing".into(),
                    flags: 0,
                    mode: 0,
                },
                -2,
            ),
            rec(IoCall::Write { fd: 3, len: 10 }, -9),
        ];
        let stats = by_path(&recs);
        assert_eq!(stats["/missing"].ops, 1);
        // the write had no bound fd: unattributed
        assert_eq!(stats.len(), 1);
    }

    #[test]
    fn ranks_have_separate_fd_tables() {
        let mut a = rec(
            IoCall::Open {
                path: "/a".into(),
                flags: 0,
                mode: 0,
            },
            3,
        );
        a.rank = 0;
        let mut b = rec(
            IoCall::Open {
                path: "/b".into(),
                flags: 0,
                mode: 0,
            },
            3,
        );
        b.rank = 1;
        let mut wa = rec(IoCall::Write { fd: 3, len: 5 }, 5);
        wa.rank = 0;
        let mut wb = rec(IoCall::Write { fd: 3, len: 9 }, 9);
        wb.rank = 1;
        let stats = by_path(&[a, b, wa, wb]);
        assert_eq!(stats["/a"].bytes, 5);
        assert_eq!(stats["/b"].bytes, 9);
    }

    #[test]
    fn top_by_bytes_orders_desc() {
        let recs = vec![
            rec(
                IoCall::Open {
                    path: "/small".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            rec(IoCall::Write { fd: 3, len: 10 }, 10),
            rec(IoCall::Close { fd: 3 }, 0),
            rec(
                IoCall::Open {
                    path: "/big".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            rec(IoCall::Write { fd: 3, len: 1000 }, 1000),
        ];
        let stats = by_path(&recs);
        let top = top_by_bytes(&stats, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, "/big");
    }

    #[test]
    fn top_by_bytes_selection_matches_full_sort_with_ties() {
        // Many paths, deliberate byte-count ties: partial selection must
        // agree with an exhaustive sort at every cutoff.
        let mut stats: HashMap<String, PathStats> = HashMap::new();
        for i in 0..40u64 {
            stats.insert(
                format!("/f/{i:02}"),
                PathStats {
                    ops: 1,
                    bytes: i % 7, // ties everywhere
                    time: SimDur::from_micros(1),
                },
            );
        }
        let mut full: Vec<(String, PathStats)> =
            stats.iter().map(|(k, s)| (k.clone(), s.clone())).collect();
        full.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then_with(|| a.0.cmp(&b.0)));
        for n in [0, 1, 5, 39, 40, 100] {
            let top = top_by_bytes(&stats, n);
            assert_eq!(top, full[..n.min(full.len())].to_vec(), "n={n}");
        }
    }

    #[test]
    fn interned_aggregation_matches_string_keyed() {
        let recs = vec![
            rec(
                IoCall::Open {
                    path: "/data/a".into(),
                    flags: 0,
                    mode: 0,
                },
                3,
            ),
            rec(IoCall::Write { fd: 3, len: 100 }, 100),
            rec(
                IoCall::Stat {
                    path: "/data/b".into(),
                },
                0,
            ),
            rec(IoCall::Close { fd: 3 }, 0),
        ];
        let plain = by_path(&recs);
        let mut paths = Interner::new();
        let interned = by_path_interned(&recs, &mut paths);
        assert_eq!(plain.len(), interned.len());
        for (sym, s) in &interned {
            assert_eq!(plain[paths.resolve(*sym)], *s);
        }
        let top_plain = top_by_bytes(&plain, 2);
        let top_interned = top_by_bytes_interned(&interned, &paths, 2);
        assert_eq!(top_plain.len(), top_interned.len());
        for (p, i) in top_plain.iter().zip(&top_interned) {
            assert_eq!(p.0, paths.resolve(i.0));
            assert_eq!(p.1, i.1);
        }
    }
}
