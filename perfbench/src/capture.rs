//! `capture`: the paper's end-to-end path (§3.1). `mpi_io_test` runs at
//! 32 ranks, N-1 strided, 64 KiB blocks — the paper's worst-overhead
//! point, with the most traced events per byte — untraced and then under
//! each framework: LANL-Trace `ltrace` written as text, Tracefs with
//! checksum + compress + encrypt written as binary, and //TRACE at
//! sampling 0.5 written as a replayable document and replayed. Every
//! output goes to disk and is read back through the format-detecting
//! loader.
//!
//! The load is a closed loop of capture requests from one client. A
//! request is the paper's comparison: run the job untraced, then under
//! each framework, and return the three decoded traces. Every request
//! is the same job, 1 GiB in total, so its simulated results must repeat
//! exactly and the latency percentiles are the spread of that one
//! request.

use std::path::PathBuf;
use std::time::Instant;

use iotrace_fs::vfs::Vfs;
use iotrace_ioapi::harness::{standard_cluster, standard_vfs};
use iotrace_lanl::run::{untraced_baseline, LanlTrace};
use iotrace_model::binary::FieldSel;
use iotrace_model::event::Trace;
use iotrace_model::text::format_text;
use iotrace_model::xtea::Key;
use iotrace_partrace::run::{Partrace, PartraceConfig};
use iotrace_replay::fidelity::replay_and_measure;
use iotrace_replay::pseudo::ReplayConfig;
use iotrace_tracefs::framework::Tracefs;
use iotrace_tracefs::options::TracefsOptions;
use iotrace_workloads::mpi_io_test::MpiIoTest;
use iotrace_workloads::pattern::AccessPattern;

use crate::spans::{Elapsed, Spans};
use crate::util::{decode, traces_digest, Format, Loaded};
use crate::{Iter, Size, Tally, Workload};

const RANKS: u32 = 32;
const BLOCK: u64 = 64 * 1024;
/// //TRACE's throttled-probe sampling rate.
const SAMPLING: f64 = 0.5;

/// Simulated-time results of one request; deterministic per seed.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SimResults {
    untraced_ns: u64,
    lanl_ns: u64,
    tracefs_ns: u64,
    partrace_capture_ns: u64,
    replay_ns: u64,
    records: [u64; 3],
    deps: usize,
}

pub struct Capture {
    dir: PathBuf,
    /// Seeds the simulated clusters' clock skew and drift.
    cluster_seed: u64,
    job: MpiIoTest,
    key: Key,
    /// Simulated results of the reference request.
    reference: Option<SimResults>,
}

/// What one request measured.
struct Request {
    elapsed: Elapsed,
    sim: SimResults,
    /// Seconds spent on LANL-Trace, Tracefs and //TRACE, output included.
    framework_s: [f64; 3],
}

impl Capture {
    pub fn setup(seed: u64, size: Size, dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let total_bytes: u64 = match size {
            Size::Full => 1 << 30,
            Size::Small => 16 << 20,
        };
        let mut capture = Capture {
            dir,
            cluster_seed: seed,
            job: MpiIoTest::new(AccessPattern::NTo1Strided, RANKS, BLOCK, 1)
                .with_total_bytes(total_bytes),
            key: Key::from_passphrase(&format!("perfbench-{seed}")),
            reference: None,
        };
        // The reference request: its simulated results are what every
        // measured request must reproduce exactly.
        let mut tally = Tally::default();
        let r = capture.request(&mut Spans::new(false), &mut tally)?;
        if tally.failed > 0 {
            return Err(format!("reference request: {:?}", tally.failures));
        }
        capture.reference = Some(r.sim);
        Ok(capture)
    }

    fn vfs(&self) -> Vfs {
        let mut vfs = standard_vfs(RANKS as usize);
        vfs.setup_dir(&self.job.dir)
            .expect("a fresh standard VFS accepts the job directory");
        vfs
    }

    /// Write `blobs` to disk under `stem`, read them back and decode each
    /// with the decoder its magic bytes select.
    fn round_trip(
        &self,
        sp: &mut Spans,
        stem: &str,
        blobs: &[&[u8]],
        key: Option<&Key>,
    ) -> Result<Vec<Loaded>, String> {
        let paths: Vec<PathBuf> = (0..blobs.len())
            .map(|i| self.dir.join(format!("{stem}{i:02}")))
            .collect();
        sp.time("disk.write_s", || {
            paths
                .iter()
                .zip(blobs)
                .try_for_each(|(p, b)| std::fs::write(p, b))
        })
        .map_err(|e| format!("write {stem}: {e}"))?;
        let read = sp
            .time("disk.read_s", || {
                paths
                    .iter()
                    .map(std::fs::read)
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("read {stem}: {e}"))?;
        read.iter()
            .map(|bytes| {
                let format = Format::detect(bytes);
                sp.time(format.span(), || decode(format, bytes, key))
            })
            .collect()
    }
}

fn traces_of(loaded: Vec<Loaded>) -> Vec<Trace> {
    loaded
        .into_iter()
        .flat_map(|l| match l {
            Loaded::Traces(ts) => ts,
            Loaded::Replayable(rt) => rt.traces,
        })
        .collect()
}

/// Same record count and, record by record, the same call and result.
fn same_calls(a: &[Trace], b: &[Trace]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.records.len() == y.records.len()
                && x.records
                    .iter()
                    .zip(&y.records)
                    .all(|(r, s)| r.call == s.call && r.result == s.result)
        })
}

impl Capture {
    /// Serve one request: the timed path is one root span; the checks
    /// run after it.
    fn request(&self, sp: &mut Spans, tally: &mut Tally) -> Result<Request, String> {
        let job = &self.job;
        let cmdline = job.cmdline();
        let seed = self.cluster_seed;
        let timer = sp.begin_iteration();

        // Untraced baseline: the denominator of every overhead.
        let (vfs, programs) = (self.vfs(), job.programs());
        let base = sp.time("sim.untraced_run_s", || {
            untraced_baseline(standard_cluster(RANKS as usize, seed), vfs, programs)
        });

        // LANL-Trace (ltrace), text output.
        let t0 = Instant::now();
        let (vfs, programs) = (self.vfs(), job.programs());
        let lanl = sp.time("lanl.run_s", || {
            LanlTrace::ltrace().run(
                standard_cluster(RANKS as usize, seed),
                vfs,
                programs,
                &cmdline,
            )
        });
        let docs: Vec<String> = sp.time("model.text_format_s", || {
            lanl.traces.iter().map(format_text).collect()
        });
        let blobs: Vec<&[u8]> = docs.iter().map(|d| d.as_bytes()).collect();
        let lanl_back = traces_of(self.round_trip(sp, "lanl_rank", &blobs, None)?);
        let lanl_s = t0.elapsed().as_secs_f64();

        // Tracefs stacked on the PFS: checksum + compress + encrypt.
        let t0 = Instant::now();
        let (mut vfs, programs) = (self.vfs(), job.programs());
        let mut tfs = Tracefs::new(TracefsOptions {
            parallel_patch: true,
            checksum: true,
            compress: true,
            encrypt: Some((self.key, FieldSel::ALL)),
            ..Default::default()
        });
        let tracefs_job = sp.time("tracefs.run_s", || {
            tfs.mount(&mut vfs, "/pfs")
                .map(|()| untraced_baseline(standard_cluster(RANKS as usize, seed), vfs, programs))
        });
        let tracefs_job = tracefs_job.map_err(|e| format!("mount tracefs: {e:?}"))?;
        let blob = sp.time("tracefs.encode_s", || tfs.encode(&cmdline));
        let tracefs_back = traces_of(self.round_trip(sp, "tracefs", &[&blob], Some(&self.key))?);
        let tracefs_s = t0.elapsed().as_secs_f64();

        // //TRACE: capture (traced run + throttled probe run), replayable
        // document, replay.
        let t0 = Instant::now();
        let mk = || {
            (
                standard_cluster(RANKS as usize, seed),
                self.vfs(),
                job.programs(),
            )
        };
        let cap = sp.time("partrace.capture_s", || {
            Partrace::new(PartraceConfig::with_sampling(SAMPLING)).capture(mk, &cmdline)
        });
        let doc = sp.time("model.replayable_text_s", || cap.replayable.to_text());
        let rt = match self
            .round_trip(sp, "partrace", &[doc.as_bytes()], None)?
            .pop()
        {
            Some(Loaded::Replayable(rt)) => rt,
            _ => return Err("the replayable document did not load as one".into()),
        };
        let vfs = self.vfs();
        let (fidelity, replayed) = sp.time("replay.run_s", || {
            replay_and_measure(
                &rt,
                standard_cluster(RANKS as usize, seed),
                vfs,
                ReplayConfig::default(),
            )
        });
        let partrace_s = t0.elapsed().as_secs_f64();
        let elapsed = sp.end_iteration(timer);

        // Checks, outside the timed path.
        let lanl_records = lanl.traces.iter().map(|t| t.records.len() as u64).sum();
        // Text keeps microseconds: the read-back must re-render to the
        // bytes on disk and carry every record's call and result.
        tally.check(
            lanl_back.len() == docs.len()
                && lanl_back
                    .iter()
                    .zip(&docs)
                    .all(|(t, d)| format_text(t) == *d)
                && same_calls(&lanl_back, &lanl.traces),
            || "LANL-Trace text read back differs from the captured traces".into(),
        );
        let tracefs_trace = tfs.trace(&cmdline);
        tally.check(
            traces_digest(&tracefs_back) == traces_digest(std::slice::from_ref(&tracefs_trace)),
            || "Tracefs binary read back differs from the captured trace".into(),
        );
        tally.check(
            rt.to_text() == doc
                && same_calls(&rt.traces, &cap.replayable.traces)
                && rt.deps == cap.replayable.deps,
            || "//TRACE replayable document read back differs from the capture".into(),
        );
        tally.check(
            replayed.run.is_clean()
                && fidelity.bytes_original > 0
                && fidelity.bytes_replayed == fidelity.bytes_original,
            || {
                format!(
                    "replay moved {} of {} bytes",
                    fidelity.bytes_replayed, fidelity.bytes_original
                )
            },
        );
        let sim = SimResults {
            untraced_ns: base.elapsed().as_nanos(),
            lanl_ns: lanl.report.elapsed().as_nanos(),
            tracefs_ns: tracefs_job.elapsed().as_nanos(),
            partrace_capture_ns: cap.capture_elapsed.as_nanos(),
            replay_ns: replayed.elapsed().as_nanos(),
            records: [
                lanl_records,
                tracefs_trace.records.len() as u64,
                cap.replayable.total_records() as u64,
            ],
            deps: cap.replayable.deps.edges.len(),
        };
        if let Some(reference) = &self.reference {
            tally.check(*reference == sim, || {
                format!("simulated results changed: {reference:?} vs {sim:?}")
            });
        }
        tally.check(sim.lanl_ns > sim.untraced_ns, || {
            "LANL-Trace shows no overhead over the untraced run".into()
        });

        sp.set("sim.events", base.run.events as f64);
        sp.set("sim.elapsed_sim_s", base.elapsed().as_secs_f64());
        sp.set("ioapi.ops", lanl.report.stats.ops as f64);
        sp.set(
            "ioapi.events_traced",
            lanl.report.stats.events_traced as f64,
        );
        sp.set(
            "ioapi.tracer_sim_s",
            lanl.report.stats.tracer_time.as_secs_f64(),
        );
        sp.set("partrace.deps", sim.deps as f64);
        Ok(Request {
            elapsed,
            sim,
            framework_s: [lanl_s, tracefs_s, partrace_s],
        })
    }
}

impl Workload for Capture {
    fn iteration(&mut self, sp: &mut Spans, tally: &mut Tally) -> Result<Iter, String> {
        let r = self.request(sp, tally)?;
        let [lanl, tracefs, partrace] = r.sim.records;
        sp.set("lanl.rec_per_s", lanl as f64 / r.framework_s[0]);
        sp.set("tracefs.rec_per_s", tracefs as f64 / r.framework_s[1]);
        sp.set("partrace.rec_per_s", partrace as f64 / r.framework_s[2]);
        Ok(Iter {
            wall_s: r.elapsed.wall_s,
            cpu_s: r.elapsed.cpu_s,
            records: lanl + tracefs + partrace,
            latencies: vec![r.elapsed.cpu_s],
        })
    }
}
