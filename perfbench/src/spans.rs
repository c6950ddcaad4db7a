//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into the workspace crates; the part of a span name before the first
//! `.` is the crate (layer) the call goes into. Every iteration of a
//! workload is one root span, so a span's self time is its duration
//! minus the durations of its direct children (children never overlap:
//! the benchmark drives each layer from one thread), and the self times
//! of all spans of an iteration sum exactly to the root's duration. The
//! root's own self time is the explicit `other` share: benchmark glue
//! that is no layer's work.
//!
//! With recording off every call is a pass-through, so the untraced run
//! pays nothing but a branch.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::cpu_s;

/// Name of the per-iteration root span.
pub const ROOT: &str = "iteration";

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Workload iteration the span belongs to.
    pub iter: u32,
    /// Index of the enclosing span in [`Spans::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Handle returned by [`Spans::begin_iteration`].
#[must_use]
pub struct IterTimer {
    open: Open,
    start: Instant,
    cpu_start: f64,
}

/// Time of the timed part of an iteration, seconds.
#[derive(Clone, Copy, Debug)]
pub struct Elapsed {
    pub wall_s: f64,
    /// CPU time of the process ([`cpu_s`]).
    pub cpu_s: f64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    iter: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Per-iteration counters and gauges: (iteration, name) -> value.
    values: BTreeMap<(u32, &'static str), f64>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            iter: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Number the spans and values recorded from now on.
    pub fn set_iteration(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Start the timed part of an iteration: opens its root span.
    pub fn begin_iteration(&mut self) -> IterTimer {
        IterTimer {
            open: self.enter(ROOT),
            start: Instant::now(),
            cpu_start: cpu_s(),
        }
    }

    /// End the timed part of an iteration; returns its wall and CPU
    /// time, measured whether or not spans are recorded.
    pub fn end_iteration(&mut self, timer: IterTimer) -> Elapsed {
        let elapsed = Elapsed {
            wall_s: timer.start.elapsed().as_secs_f64(),
            cpu_s: cpu_s() - timer.cpu_start,
        };
        self.exit(timer.open);
        elapsed
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            iter: self.iter,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Set the current iteration's value of `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.values.insert((self.iter, name), v);
        }
    }

    /// Per-iteration breakdown: for each iteration, the self time of
    /// every span name (summed over its spans), the root's self time as
    /// [`OTHER`], the root's wall time, and the recorded values.
    pub fn breakdown(&self) -> BTreeMap<u32, Breakdown> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<u32, Breakdown> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let b = out.entry(s.iter).or_default();
            let self_ns = s.duration_ns() - child_ns[i];
            if s.name == ROOT {
                b.wall_ns += s.duration_ns();
                *b.self_ns.entry(OTHER).or_insert(0) += self_ns;
            } else {
                *b.self_ns.entry(s.name).or_insert(0) += self_ns;
            }
        }
        for (&(iter, name), &v) in &self.values {
            out.entry(iter).or_default().values.insert(name, v);
        }
        out
    }

    /// All spans as JSON lines: name, iteration, parent, start, end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"iter\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.name, s.iter, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Name under which a root span's self time is reported.
pub const OTHER: &str = "other_s";

/// One iteration's per-span-name self times (ns) and values.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    pub wall_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Breakdown {
    /// Self time per layer: span names grouped by the part before the
    /// first `.`, plus [`OTHER`].
    pub fn by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (&name, &ns) in &self.self_ns {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0) += ns;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_wall_time() {
        let mut sp = Spans::new(true);
        for iter in 0..2 {
            sp.set_iteration(iter);
            let root = sp.begin_iteration();
            let outer = sp.enter("lint.run_s");
            sp.time("lint.clock_s", || {
                std::hint::black_box((0..1000).sum::<u64>())
            });
            sp.time("lint.causality_s", || {
                std::hint::black_box((0..500).sum::<u64>())
            });
            sp.exit(outer);
            sp.time("model.text_parse_s", || ());
            sp.end_iteration(root);
        }
        let b = sp.breakdown();
        assert_eq!(b.len(), 2);
        for it in b.values() {
            let sum: u64 = it.self_ns.values().sum();
            assert_eq!(sum, it.wall_ns);
            assert_eq!(it.by_layer().values().sum::<u64>(), it.wall_ns);
        }
    }

    #[test]
    fn off_records_nothing() {
        let mut sp = Spans::new(false);
        let root = sp.begin_iteration();
        sp.time("model.text_parse_s", || ());
        sp.set("sim.events", 3.0);
        assert!(sp.end_iteration(root).wall_s >= 0.0);
        assert!(sp.to_jsonl().is_empty());
        assert!(sp.breakdown().is_empty());
    }
}
