//! `ingest`: the collector with long sessions. A closed loop of two
//! concurrent capture sessions, each keeping one frame in flight the way
//! `SimClient` does, streams pre-encoded frames through
//! `Collector::offer`/`drain`/`take_outbox`. Every 64 seals a mid-capture
//! `snapshot()` + `hotspots()` query runs. A second collector then takes
//! the same sessions and is killed at a seeded frame, and `recover_spool`
//! salvages its spool. Each seal of the live collector is one request:
//! its latency runs from offering the frame that completes a segment to
//! its `Sealed` ack.
//!
//! The collector rewrites a session's whole journal on every seal, and
//! the file system starts writing each rewrite out to disk, so about two
//! thirds of this workload's wall time is waiting on the disk. Like every
//! end-to-end time of the benchmark, the iteration time and the seal
//! latencies are CPU time ([`cpu_s`]), which includes the kernel's
//! copying of every rewrite.
//!
//! Sessions are long on purpose: the cost of persisting a session grows
//! with what it already holds, and this workload is where that shows.

use std::path::{Path, PathBuf};
use std::time::Instant;

use iotrace_analysis::merge::merge_corrected;
use iotrace_analysis::skew::SkewEstimate;
use iotrace_collector::soak::synth_client_traces;
use iotrace_collector::{encode_frame, recover_spool, Collector, CollectorConfig, Frame};
use iotrace_model::event::Trace;
use iotrace_model::journal::{fsck_journal, records_digest};
use iotrace_sim::rng::DetRng;

use crate::host::cpu_s;
use crate::spans::Spans;
use crate::util::{percentile, sorted, wchar};
use crate::{Iter, Size, Tally, Workload};

const CLIENTS: u32 = 2;
const FRAME_RECORDS: usize = 16;
const SEGMENT_RECORDS: usize = 64;
const SNAPSHOT_EVERY_SEALS: u64 = 64;

/// One client's wire traffic, encoded up front: the client is load, not
/// the system under test.
struct ClientFrames {
    /// `Hello`, then one `Records` frame per chunk, then `Bye`.
    frames: Vec<Vec<u8>>,
    /// Records carried by each frame.
    records: Vec<u64>,
}

/// Client-side state of one stream.
struct Stream {
    next: usize,
    /// Offer time ([`cpu_s`]) of the frame in flight.
    offered: Option<f64>,
    /// Offer time of the frame acked last: a `Sealed` follows the `Ack`
    /// of the frame that completed the segment.
    acked_offer: Option<f64>,
    done: bool,
    acked_records: u64,
    durable: u64,
}

#[derive(Default)]
struct StreamStats {
    seal_latencies: Vec<f64>,
    snapshot_latencies: Vec<f64>,
    frames: u64,
    seals: u64,
    records: u64,
    busy: u64,
    high_watermark: usize,
    durable: Vec<u64>,
    done: bool,
}

pub struct Ingest {
    dir: PathBuf,
    traces: Vec<Trace>,
    clients: Vec<ClientFrames>,
    /// Digest of the merged generated input: what a clean spool must
    /// merge to.
    input_digest: u64,
    kill_at: u64,
    cfg: CollectorConfig,
    runs: u32,
}

impl Ingest {
    pub fn setup(seed: u64, size: Size, dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let per_client = match size {
            Size::Full => 65_536,
            Size::Small => 2_048,
        };
        let traces = synth_client_traces(CLIENTS, per_client, seed);
        let clients: Vec<ClientFrames> = traces
            .iter()
            .map(|t| {
                let mut frames = vec![encode_frame(&Frame::Hello {
                    meta: t.meta.clone(),
                    expected_records: t.records.len() as u64,
                })];
                let mut records = vec![0];
                for (i, chunk) in t.records.chunks(FRAME_RECORDS).enumerate() {
                    frames.push(encode_frame(&Frame::Records {
                        seq: i as u64 + 1,
                        records: chunk.to_vec(),
                    }));
                    records.push(chunk.len() as u64);
                }
                frames.push(encode_frame(&Frame::Bye {
                    frames_sent: frames.len() as u64 - 1,
                }));
                records.push(0);
                ClientFrames { frames, records }
            })
            .collect();
        let merged = merge_corrected(
            &traces,
            &SkewEstimate {
                fits: Default::default(),
                reference_rank: 0,
            },
        );
        let total_frames: u64 = clients.iter().map(|c| c.frames.len() as u64).sum();
        // Killed mid-stream, at a frame the seed picks within a window of
        // 1/128 of the stream: the killed collector's work, which grows
        // with the square of how far it gets, is then nearly the same for
        // every seed.
        let window = (total_frames / 128).max(1);
        let kill_at = total_frames / 2 - window / 2 + DetRng::new(seed ^ 0x1a6e).below(window);
        Ok(Ingest {
            dir,
            input_digest: records_digest(&merged),
            traces,
            clients,
            kill_at,
            cfg: CollectorConfig {
                segment_records: SEGMENT_RECORDS,
                ..CollectorConfig::default()
            },
            runs: 0,
        })
    }

    /// Drive every client to completion (or the collector to its kill).
    fn stream(
        &self,
        sp: &mut Spans,
        collector: &mut Collector,
        kill_at: Option<u64>,
    ) -> Result<StreamStats, String> {
        let mut out = StreamStats::default();
        let mut streams: Vec<Stream> = (0..self.clients.len())
            .map(|_| Stream {
                next: 0,
                offered: None,
                acked_offer: None,
                done: false,
                acked_records: 0,
                durable: 0,
            })
            .collect();
        let mut since_snapshot = 0;
        loop {
            for (c, s) in streams.iter_mut().enumerate() {
                if s.done || s.offered.is_some() {
                    continue;
                }
                let bytes = self.clients[c].frames[s.next].clone();
                let offered = cpu_s();
                // `offer` refuses only with `Busy`: a retry, not a failure.
                if sp.time("collector.offer_s", || {
                    collector.offer(c as u32, bytes).is_ok()
                }) {
                    s.offered = Some(offered);
                }
            }
            let killed = sp.time("collector.drain_s", || {
                collector.drain(self.cfg.drain_per_tick, kill_at)
            })?;
            for (to, frame) in collector.take_outbox() {
                let c = to as usize;
                let s = &mut streams[c];
                match frame {
                    Frame::HelloAck { .. } | Frame::Ack { .. } => {
                        out.frames += 1;
                        s.acked_records += self.clients[c].records[s.next];
                        s.next += 1;
                        s.acked_offer = s.offered.take();
                    }
                    Frame::Sealed { records } => {
                        out.seals += 1;
                        since_snapshot += 1;
                        s.durable = records;
                        let offered = s.acked_offer.ok_or("Sealed before any Ack")?;
                        out.seal_latencies.push(cpu_s() - offered);
                    }
                    Frame::ByeAck { records } => {
                        out.frames += 1;
                        s.durable = records;
                        s.done = true;
                        s.offered = None;
                    }
                    // Refused after queueing: re-offer the same frame.
                    Frame::Busy { .. } => {
                        out.busy += 1;
                        s.offered = None;
                    }
                    other => return Err(format!("unexpected reply {other:?}")),
                }
            }
            if killed {
                break;
            }
            if since_snapshot >= SNAPSHOT_EVERY_SEALS {
                since_snapshot = 0;
                let t0 = Instant::now();
                let (snap, hot) = sp.time("collector.snapshot_s", || {
                    (collector.snapshot(), collector.hotspots(10))
                });
                out.snapshot_latencies.push(t0.elapsed().as_secs_f64());
                if snap.folded_records == 0 || hot.is_empty() {
                    return Err("mid-capture snapshot saw no sealed records".into());
                }
            }
            if streams.iter().all(|s| s.done) && collector.queue().is_empty() {
                out.done = true;
                break;
            }
        }
        out.records = streams.iter().map(|s| s.acked_records).sum();
        out.durable = streams.iter().map(|s| s.durable).collect();
        out.busy += collector.queue().refused();
        out.high_watermark = collector.queue().high_watermark();
        Ok(out)
    }
}

fn spool_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "iotj"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Workload for Ingest {
    fn iteration(&mut self, sp: &mut Spans, tally: &mut Tally) -> Result<Iter, String> {
        self.runs += 1;
        let live = self.dir.join(format!("live{}", self.runs));
        let crashed = self.dir.join(format!("crashed{}", self.runs));

        let iter = sp.begin_iteration();
        let wchar0 = wchar();
        let mut a = Collector::open(&live, self.cfg)?;
        let full = self.stream(sp, &mut a, None)?;
        let wchar_bytes = wchar() - wchar0;
        let mut b = Collector::open(&crashed, self.cfg)?;
        let cut = self.stream(sp, &mut b, Some(self.kill_at))?;
        let recovered = sp.time("collector.recover_s", || {
            recover_spool(&crashed, SEGMENT_RECORDS)
        })?;
        let elapsed = sp.end_iteration(iter);

        // One operation per frame applied, snapshot and recovery.
        tally.ok(full.frames + cut.frames + full.snapshot_latencies.len() as u64 + 1);
        tally.check(full.done && !cut.done, || {
            "the live collector did not finish, or the killed one did".into()
        });
        let clean = recover_spool(&live, SEGMENT_RECORDS)?;
        tally.check(
            clean.merged_digest == self.input_digest
                && clean.total_records == self.traces.iter().map(|t| t.records.len() as u64).sum(),
            || "merged spool digest differs from the generated input".into(),
        );
        // Every session of the killed collector: what recovery kept is a
        // prefix of the input holding at least every record acked Sealed.
        for (row, (trace, &durable)) in recovered
            .rows
            .iter()
            .zip(self.traces.iter().zip(&cut.durable))
        {
            let bytes = std::fs::read(crashed.join(&row.file)).map_err(|e| e.to_string())?;
            let (kept, _) = fsck_journal(&bytes).map_err(|e| e.to_string())?;
            let n = kept.records.len();
            tally.check(
                n as u64 >= durable
                    && n <= trace.records.len()
                    && records_digest(&kept.records) == records_digest(&trace.records[..n]),
                || {
                    format!(
                        "{}: recovered {n} records, {durable} were acked Sealed",
                        row.file
                    )
                },
            );
        }
        tally.check(recovered.rows.len() == self.traces.len(), || {
            format!(
                "recovered {} sessions of {}",
                recovered.rows.len(),
                self.traces.len()
            )
        });

        let spool = spool_bytes(&live);
        // Requests are the live collector's seals: the killed one stops
        // at a seeded frame, which would make the mix depend on the seed.
        let seals = full.seal_latencies;
        sp.set("collector.frames", (full.frames + cut.frames) as f64);
        sp.set("collector.seals", (full.seals + cut.seals) as f64);
        sp.set("collector.busy_refusals", (full.busy + cut.busy) as f64);
        sp.set(
            "collector.queue_high_watermark",
            full.high_watermark.max(cut.high_watermark) as f64,
        );
        sp.set("collector.wchar_bytes", wchar_bytes as f64);
        sp.set("collector.spool_bytes", spool as f64);
        sp.set(
            "collector.write_amplification",
            wchar_bytes as f64 / spool.max(1) as f64,
        );
        sp.set(
            "collector.seal_ack_p99_s",
            percentile(&sorted(&seals), 0.99),
        );
        if !full.snapshot_latencies.is_empty() {
            sp.set(
                "collector.snapshot_p50_s",
                percentile(&sorted(&full.snapshot_latencies), 0.5),
            );
        }
        sp.set(
            "collector.salvaged_segments",
            recovered
                .rows
                .iter()
                .filter(|r| r.orphaned)
                .map(|r| r.segments as f64)
                .sum(),
        );
        for d in [&live, &crashed] {
            let _ = std::fs::remove_dir_all(d);
        }
        Ok(Iter {
            wall_s: elapsed.wall_s,
            cpu_s: elapsed.cpu_s,
            records: full.records + cut.records,
            latencies: seals,
        })
    }
}
