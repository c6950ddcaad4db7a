//! # iotrace-analysis — trace analysis tools
//!
//! The taxonomy's "analysis tools" axis, made concrete:
//!
//! * [`skew`] — estimate and correct clock skew & drift from
//!   aggregate-timing barrier observations (what LANL-Trace's pre/post
//!   MPI jobs exist for);
//! * [`merge`] — clock-corrected cross-rank timeline merging and
//!   thread-parallel trace parsing;
//! * [`stats`] — per-layer counts, byte totals, duration percentiles;
//! * [`hotspots`] — per-file attribution of ops/bytes/time with
//!   rank-aware descriptor tracking;
//! * [`phases`] — barrier-delimited phase decomposition with bottleneck
//!   and load-imbalance attribution.
//!
//! Each of the last three has exactly one code path, a fold:
//! [`stats::StatsFold`], [`hotspots::PathFold`] and
//! [`phases::PhaseFold`]. Folds over parts of a trace merge into the
//! fold over the whole, so a batch run, a parallel run, the collector's
//! mid-capture answer and a federated answer agree exactly, percentiles
//! included. The batch entry points (`TraceStats::from_records`,
//! `by_path_interned`, `phases`) are thin wrappers over the folds.

pub mod hotspots;
pub mod merge;
pub mod phases;
pub mod skew;
pub mod stats;

pub mod prelude {
    pub use crate::hotspots::{
        by_path, by_path_interned, top_by_bytes, top_by_bytes_interned, PathFold, PathStats,
    };
    pub use crate::merge::{
        merge_by_sort, merge_corrected, merge_partial, merge_strict, parse_parallel, MergeError,
        RankCoverage,
    };
    pub use crate::phases::{phases, render as render_phases, Phase, PhaseFold, RankPhase};
    pub use crate::skew::{estimate, ClockFit, SkewEstimate};
    pub use crate::stats::{StatsFold, TraceStats};
}
