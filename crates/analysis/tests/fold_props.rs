//! Split-invariance of the analysis folds, and the stats sketch against
//! an exact oracle.
//!
//! * `StatsFold`: for any partition of a record stream into parts, and
//!   any order of merging the parts, the finished `TraceStats` equals
//!   one fold over the whole stream — percentiles included.
//! * `PathFold` and `PhaseFold`: for any rank-aligned partition (no
//!   rank's records split across parts), the merged result equals the
//!   fold over all ranks.
//! * The sketch percentiles are checked against the exact sorted-`Vec`
//!   nearest-rank picker: never below it, exact below 256 ns, and less
//!   than 1/128 relative error above.

use iotrace_analysis::hotspots::PathFold;
use iotrace_analysis::phases::{phases, PhaseFold};
use iotrace_analysis::stats::{StatsFold, TraceStats};
use iotrace_model::event::{IoCall, Trace, TraceMeta, TraceRecord};
use iotrace_sim::time::{SimDur, SimTime};
use proptest::prelude::*;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A duration drawn from one of several scales, so the stream mixes
/// exact-bucket values (< 256 ns), microseconds, and up to ~20 minutes.
fn duration(state: &mut u64) -> SimDur {
    let ns = match xorshift(state) % 5 {
        0 => xorshift(state) % 256,
        1 => xorshift(state) % 5_000,
        2 => xorshift(state) % 2_000_000,
        3 => xorshift(state) % 1_000_000_000,
        _ => xorshift(state) % (1 << 40),
    };
    SimDur::from_nanos(ns)
}

/// `ranks` per-rank traces of opens, fd I/O, closes, path-only calls and
/// barriers. `shuffle` reverses half of each trace so records are not
/// time-sorted (the phase fold's rescan path).
fn build_traces(seed: u64, ranks: u32, records: usize, shuffle: bool) -> Vec<Trace> {
    const PATHS: [&str; 5] = ["/pfs/a", "/pfs/b", "/scratch/c", "/pfs/a/deep", "/tmp/x"];
    let mut state = seed | 1;
    let mut out = Vec::new();
    for rank in 0..ranks {
        let mut t = Trace::new(TraceMeta::new("/app", rank, rank, "t"));
        let mut ts = 0u64;
        for _ in 0..records {
            ts += xorshift(&mut state) % 4_000;
            let fd = 3 + (xorshift(&mut state) % 3) as i64;
            let path = PATHS[(xorshift(&mut state) % PATHS.len() as u64) as usize].to_string();
            let (call, result) = match xorshift(&mut state) % 8 {
                0 => (
                    IoCall::Open {
                        path,
                        flags: 0,
                        mode: 0o600,
                    },
                    // some opens fail and bind nothing
                    if xorshift(&mut state).is_multiple_of(5) {
                        -2
                    } else {
                        fd
                    },
                ),
                1 => (
                    IoCall::Write {
                        fd,
                        len: xorshift(&mut state) % 4096,
                    },
                    1,
                ),
                2 => (
                    IoCall::Pread {
                        fd,
                        offset: 0,
                        len: xorshift(&mut state) % 512,
                    },
                    -5,
                ),
                3 => (IoCall::Close { fd }, 0),
                4 => (IoCall::Stat { path }, 0),
                5 => (
                    IoCall::VfsWritePage {
                        path,
                        offset: 0,
                        len: 4096,
                    },
                    4096,
                ),
                _ => (IoCall::MpiBarrier, 0),
            };
            t.records.push(TraceRecord {
                ts: SimTime::from_nanos(ts),
                dur: duration(&mut state),
                rank,
                node: rank,
                pid: 1,
                uid: 0,
                gid: 0,
                call,
                result,
            });
        }
        if shuffle {
            let half = t.records.len() / 2;
            t.records[..half].reverse();
        }
        out.push(t);
    }
    out
}

/// Random cut points splitting `0..len` into at most `parts` ranges.
fn cuts(state: &mut u64, len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let mut at: Vec<usize> = (1..parts)
        .map(|_| (xorshift(state) % (len as u64 + 1)) as usize)
        .collect();
    at.push(0);
    at.push(len);
    at.sort_unstable();
    at.windows(2).map(|w| w[0]..w[1]).collect()
}

/// A random permutation of `0..n`.
fn permutation(state: &mut u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, (xorshift(state) % (i as u64 + 1)) as usize);
    }
    p
}

/// The exact nearest-rank percentile: the oracle the sketch is held to.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn check_sketch_value(sketch: SimDur, exact: u64) -> Result<(), TestCaseError> {
    let got = sketch.as_nanos();
    prop_assert!(got >= exact, "sketch {got} below exact {exact}");
    if exact < 256 {
        prop_assert_eq!(got, exact);
    } else {
        prop_assert!(
            u128::from(got - exact) * 128 < u128::from(exact),
            "sketch {got} not within 1/128 of exact {exact}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any partition, any merge order: the finished stats are identical
    /// to one fold over the whole stream.
    #[test]
    fn stats_fold_is_split_and_order_invariant(
        seed in 1u64..u64::MAX,
        records in 0usize..400,
        parts in 1usize..9,
        tree in 0u8..2,
    ) {
        let all: Vec<TraceRecord> = build_traces(seed, 3, records / 3 + 1, false)
            .into_iter()
            .flat_map(|t| t.records)
            .take(records)
            .collect();
        let whole = TraceStats::from_records(&all);
        let mut state = seed.rotate_left(17) | 1;
        let folds: Vec<StatsFold> = cuts(&mut state, all.len(), parts)
            .into_iter()
            .map(|r| all[r].iter().collect())
            .collect();
        let order = permutation(&mut state, folds.len());
        let merged = if tree == 1 {
            // pairwise merge tree over the permuted parts
            let mut level: Vec<StatsFold> = order.iter().map(|&i| folds[i].clone()).collect();
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|pair| {
                        let mut f = pair[0].clone();
                        if let Some(g) = pair.get(1) {
                            f.merge(g);
                        }
                        f
                    })
                    .collect();
            }
            level.pop().unwrap_or_default()
        } else {
            let mut f = StatsFold::new();
            for &i in &order {
                f.merge(&folds[i]);
            }
            f
        };
        prop_assert_eq!(merged.finish(), whole);
    }

    /// The sketch against the exact oracle: counts, call time and max
    /// exact; every percentile never below the nearest-rank value, exact
    /// below 256 ns and within 1/128 above.
    #[test]
    fn stats_percentiles_match_the_exact_oracle(
        seed in 1u64..u64::MAX,
        records in 1usize..600,
    ) {
        let all: Vec<TraceRecord> = build_traces(seed, 1, records, false).remove(0).records;
        let fold: StatsFold = all.iter().collect();
        let mut durs: Vec<u64> = all.iter().map(|r| r.dur.as_nanos()).collect();
        durs.sort_unstable();
        let s = fold.finish();
        prop_assert_eq!(s.records, all.len());
        prop_assert_eq!(s.errors, all.iter().filter(|r| r.is_error()).count());
        prop_assert_eq!(s.call_time.as_nanos(), durs.iter().sum::<u64>());
        prop_assert_eq!(s.dur_max.as_nanos(), *durs.last().unwrap());
        check_sketch_value(s.dur_p50, exact_percentile(&durs, 0.50))?;
        check_sketch_value(s.dur_p95, exact_percentile(&durs, 0.95))?;
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            check_sketch_value(fold.quantile(q), exact_percentile(&durs, q))?;
        }
    }

    /// Rank-aligned partitions: path folds merged in any order resolve
    /// to the same hotspot table, and phase folds merged in rank order
    /// give the same phases, as one fold over every rank.
    #[test]
    fn path_and_phase_folds_are_rank_split_invariant(
        seed in 1u64..u64::MAX,
        ranks in 1u32..9,
        records in 0usize..80,
        parts in 1usize..6,
        shuffle in 0u8..2,
    ) {
        let traces = build_traces(seed, ranks, records, shuffle == 1);
        let mut state = seed.rotate_left(29) | 1;
        let groups = cuts(&mut state, traces.len(), parts);

        let mut whole_paths = PathFold::new();
        let mut whole_phases = PhaseFold::new();
        for t in &traces {
            whole_paths.push_records(&t.records);
            whole_phases.add_rank(t);
        }
        let path_parts: Vec<PathFold> = groups
            .iter()
            .map(|g| {
                let mut f = PathFold::new();
                for t in &traces[g.clone()] {
                    f.push_records(&t.records);
                }
                f
            })
            .collect();
        let mut merged_paths = PathFold::new();
        for i in permutation(&mut state, path_parts.len()) {
            merged_paths.merge(&path_parts[i]);
        }
        prop_assert_eq!(merged_paths.top(usize::MAX), whole_paths.top(usize::MAX));

        let mut merged_phases = PhaseFold::new();
        for g in &groups {
            let mut f = PhaseFold::new();
            for t in &traces[g.clone()] {
                f.add_rank(t);
            }
            merged_phases.merge(f);
        }
        let whole = whole_phases.finish();
        prop_assert_eq!(merged_phases.finish(), whole.clone());
        prop_assert_eq!(phases(&traces), whole);
    }
}

/// 1..=100 µs, one each: the nearest-rank median index is round(99 / 2)
/// = 50 (round half away from zero), i.e. 51 µs, which the sketch
/// reports as the top of its bucket, 51 199 ns.
#[test]
fn median_index_rounds_half_up() {
    let recs: Vec<TraceRecord> = (1..=100)
        .map(|i| TraceRecord {
            ts: SimTime::ZERO,
            dur: SimDur::from_micros(i),
            rank: 0,
            node: 0,
            pid: 1,
            uid: 0,
            gid: 0,
            call: IoCall::Write { fd: 3, len: 1 },
            result: 1,
        })
        .collect();
    let mut durs: Vec<u64> = recs.iter().map(|r| r.dur.as_nanos()).collect();
    durs.sort_unstable();
    assert_eq!(exact_percentile(&durs, 0.5), 51_000);
    let s = TraceStats::from_records(&recs);
    assert_eq!(s.dur_p50, SimDur::from_nanos(51_199));
    assert_eq!(s.dur_max, SimDur::from_micros(100));
}
