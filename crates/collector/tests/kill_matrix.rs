//! Kill-at-any-point: sweep a collector kill across *every* frame
//! position of a multi-client soak and prove recovery is exact.
//!
//! For each kill point the test asserts, on restart:
//! * fsck recovers every sealed segment — the recovered records are
//!   precisely the input prefix of the sealed-at-kill ground truth the
//!   harness captured from the collector the instant it died;
//! * `TraceMeta.completeness` is stamped to exactly
//!   `recovered / expected` (the handshake-time declaration);
//! * two *independent* recoveries of copies of the same torn spool
//!   produce byte-identical directories and merged digests.
//!
//! A simulated kill only tears the spool at a frame boundary. The ALICE
//! crash model (Pillai et al., "All File Systems Are Not Created Equal",
//! OSDI '14) also puts the crash *inside* a write, and lets the file
//! system drop whatever was not synced. So at every kill point the
//! spool is also cut inside the last append — the kill's torn tail, and
//! separately the append that frame made — at every byte, and cut back
//! to the last `sync()`. Every record acked `Sealed` must come back,
//! and two independent recoveries must agree byte for byte.

use std::collections::BTreeMap;
use std::path::Path;

use iotrace_collector::recovery::recover_spool;
use iotrace_collector::soak::{run_soak, synth_client_traces, SoakConfig, SoakOutcome};
use iotrace_collector::{
    encode_frame, needs_recovery, Collector, CollectorConfig, Frame, SessionState,
};
use iotrace_model::event::Trace;
use iotrace_model::journal::read_journal;
use iotrace_sim::fault::FaultPlan;

const CLIENTS: u32 = 4;
const RECORDS: usize = 120;
const FRAME_RECORDS: usize = 16;
const SEGMENT_RECORDS: usize = 32;

fn cfg() -> SoakConfig {
    SoakConfig {
        clients: CLIENTS,
        records_per_client: RECORDS,
        frame_records: FRAME_RECORDS,
        collector: CollectorConfig {
            segment_records: SEGMENT_RECORDS,
            queue_capacity: 8,
            drain_per_tick: 4,
            ..CollectorConfig::default()
        },
        ..SoakConfig::default()
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace-killmatrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// All (name, bytes) pairs of a flat directory, sorted by name.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn kill_at_every_frame_point_recovers_exactly() {
    let inputs = synth_client_traces(CLIENTS, RECORDS, 42);
    // total frames: Hello + records frames + Bye, per client
    let frames_per_client = 2 + RECORDS.div_ceil(FRAME_RECORDS) as u64;
    let total_frames = frames_per_client * u64::from(CLIENTS);

    // Sweep every pre-completion kill point. (Killing after the final
    // frame is a clean shutdown — covered by the soak tests.)
    for kill_at in 0..total_frames {
        let dir = tmpdir(&format!("k{kill_at}"));
        let mut c = cfg();
        c.kill_at_frame = Some(kill_at);
        let rep = run_soak(&dir, &c, &FaultPlan::clean(), Some(&inputs)).unwrap();
        assert_eq!(
            rep.outcome,
            SoakOutcome::Killed { at_frame: kill_at },
            "kill_at={kill_at}"
        );

        // ground truth: sealed counts the harness saw the instant the
        // collector died, keyed by session id
        let truth: BTreeMap<u32, (u32, u64, u64)> = rep
            .sessions
            .iter()
            .filter_map(|s| s.session.map(|sid| (sid, (s.client, s.expected, s.sealed))))
            .collect();

        // two independent recoveries of copies of the same torn spool
        let dir2 = tmpdir(&format!("k{kill_at}b"));
        copy_dir(&dir, &dir2);
        let rep1 = recover_spool(&dir, SEGMENT_RECORDS).unwrap();
        let rep2 = recover_spool(&dir2, SEGMENT_RECORDS).unwrap();
        assert_eq!(
            rep1.merged_digest, rep2.merged_digest,
            "kill_at={kill_at}: merged digests diverge"
        );
        assert_eq!(
            dir_contents(&dir),
            dir_contents(&dir2),
            "kill_at={kill_at}: independent recoveries are not byte-identical"
        );

        assert_eq!(rep1.rows.len(), truth.len(), "kill_at={kill_at}");
        for row in &rep1.rows {
            let (client, expected, sealed) = truth[&row.session];
            assert_eq!(
                row.recovered, sealed,
                "kill_at={kill_at} sess={}: every sealed segment must come back",
                row.session
            );
            assert_eq!(row.expected, expected);
            // completeness is *exact*: recovered / declared expectation
            let exact = row.recovered as f64 / expected as f64;
            assert_eq!(
                row.completeness, exact,
                "kill_at={kill_at} sess={}",
                row.session
            );
            // the recovered journal is clean and is precisely the input
            // prefix of the sealed count
            let bytes = std::fs::read(dir.join(&row.file)).unwrap();
            let t = read_journal(&bytes).expect("recovered journal reads strictly");
            assert_eq!(
                t.records,
                inputs[client as usize].records[..row.recovered as usize],
                "kill_at={kill_at} sess={}",
                row.session
            );
            let header_exact = (exact * 1e6).round() / 1e6; // ppm header encoding
            assert!(
                (t.meta.completeness - header_exact).abs() < 1e-9,
                "kill_at={kill_at} sess={}: header stamp {} != {}",
                row.session,
                t.meta.completeness,
                header_exact
            );
            if row.recovered == expected {
                assert_eq!(row.state, SessionState::Closed);
            } else {
                assert_eq!(row.state, SessionState::Degraded);
            }
        }

        // after recovery the spool is clean and a restarted collector
        // opens it without session-id collisions
        assert!(!needs_recovery(&dir).unwrap(), "kill_at={kill_at}");
        let restarted = Collector::open(&dir, c.collector).unwrap();
        assert!(!restarted.is_killed());

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }
}

#[test]
fn killed_soak_under_chaos_plan_recovers_and_reruns() {
    // collector-chaos plan (disconnects + slow consumer) with a kill on
    // top: recovery must still be exact and idempotent.
    let plan = FaultPlan::named("collector-chaos", 7).unwrap();
    let dir = tmpdir("chaos");
    let mut c = cfg();
    c.kill_at_frame = Some(17);
    let rep = run_soak(&dir, &c, &plan, None).unwrap();
    assert!(matches!(rep.outcome, SoakOutcome::Killed { .. }));
    let rep1 = recover_spool(&dir, SEGMENT_RECORDS).unwrap();
    let after_first = dir_contents(&dir);
    let rep2 = recover_spool(&dir, SEGMENT_RECORDS).unwrap();
    assert_eq!(rep1.merged_digest, rep2.merged_digest);
    assert_eq!(rep2.orphans(), 0, "second pass finds nothing to do");
    assert_eq!(after_first, dir_contents(&dir), "recovery is idempotent");
    let _ = std::fs::remove_dir_all(&dir);
}

const ALICE_CLIENTS: u32 = 2;
const ALICE_RECORDS: usize = 40;
const ALICE_FRAME_RECORDS: usize = 8;
const ALICE_SEGMENT_RECORDS: usize = 16;

type Image = BTreeMap<String, Vec<u8>>;

fn image(dir: &Path) -> Image {
    dir_contents(dir).into_iter().collect()
}

/// Every client's frames, interleaved round robin: `Hello`, the record
/// frames, `Bye`.
fn alice_schedule(inputs: &[Trace]) -> Vec<(u32, Frame)> {
    let per_client: Vec<Vec<Frame>> = inputs
        .iter()
        .map(|t| {
            let mut frames = vec![Frame::Hello {
                meta: t.meta.clone(),
                expected_records: t.records.len() as u64,
            }];
            for (i, chunk) in t.records.chunks(ALICE_FRAME_RECORDS).enumerate() {
                frames.push(Frame::Records {
                    seq: i as u64 + 1,
                    records: chunk.to_vec(),
                });
            }
            frames.push(Frame::Bye {
                frames_sent: frames.len() as u64 - 1,
            });
            frames
        })
        .collect();
    let longest = per_client.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| {
            per_client
                .iter()
                .enumerate()
                .filter_map(move |(c, f)| f.get(i).map(|f| (c as u32, f.clone())))
        })
        .collect()
}

/// What the clients have heard so far: their session ids, and per
/// client the highest durable count acked (`Sealed` or `ByeAck`).
#[derive(Clone, Default)]
struct Heard {
    session_client: BTreeMap<u32, u32>,
    acked: BTreeMap<u32, u64>,
}

fn apply(c: &mut Collector, heard: &mut Heard, client: u32, frame: &Frame) {
    c.offer(client, encode_frame(frame)).unwrap();
    c.drain(1, None).unwrap();
    for (to, reply) in c.take_outbox() {
        match reply {
            Frame::HelloAck { session } => {
                heard.session_client.insert(session, to);
            }
            Frame::Sealed { records } | Frame::ByeAck { records } => {
                heard.acked.insert(to, records);
            }
            _ => {}
        }
    }
}

/// Recover two independent copies of crash image `img`; they must agree
/// byte for byte, and every record `heard` acked durable must come back
/// as the exact input prefix.
fn check_crash_image(img: &Image, heard: &Heard, inputs: &[Trace], what: &str) {
    let dirs = [tmpdir("alice-a"), tmpdir("alice-b")];
    let mut reports = Vec::new();
    for d in &dirs {
        std::fs::create_dir_all(d).unwrap();
        for (name, bytes) in img {
            std::fs::write(d.join(name), bytes).unwrap();
        }
        reports.push(recover_spool(d, ALICE_SEGMENT_RECORDS).unwrap());
    }
    assert_eq!(
        reports[0].merged_digest, reports[1].merged_digest,
        "{what}: merged digests diverge"
    );
    assert_eq!(
        dir_contents(&dirs[0]),
        dir_contents(&dirs[1]),
        "{what}: independent recoveries are not byte-identical"
    );
    let recovered: BTreeMap<u32, u64> = reports[0]
        .rows
        .iter()
        .map(|r| (r.session, r.recovered))
        .collect();
    for (&session, &client) in &heard.session_client {
        let acked = heard.acked.get(&client).copied().unwrap_or(0);
        let got = recovered.get(&session).copied().unwrap_or(0);
        assert!(
            got >= acked,
            "{what}: session {session} recovered {got} records, {acked} were acked Sealed"
        );
    }
    for row in &reports[0].rows {
        if row.recovered == 0 {
            continue;
        }
        let client = heard.session_client[&row.session];
        let t = read_journal(&std::fs::read(dirs[0].join(&row.file)).unwrap())
            .expect("a recovered journal reads strictly");
        assert_eq!(
            t.records,
            inputs[client as usize].records[..row.recovered as usize],
            "{what}: session {} is not an input prefix",
            row.session
        );
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn alice_crash_inside_a_write_keeps_every_sealed_ack() {
    let inputs = synth_client_traces(ALICE_CLIENTS, ALICE_RECORDS, 9);
    let schedule = alice_schedule(&inputs);
    let cfg = CollectorConfig {
        segment_records: ALICE_SEGMENT_RECORDS,
        queue_capacity: 4,
        drain_per_tick: 1,
        ..CollectorConfig::default()
    };
    let mut images = 0usize;
    for kill_at in 1..=schedule.len() {
        let dir = tmpdir(&format!("alice-k{kill_at}"));
        let mut c = Collector::open(&dir, cfg).unwrap();
        let mut heard = Heard::default();
        for (client, frame) in &schedule[..kill_at - 1] {
            apply(&mut c, &mut heard, *client, frame);
        }
        let before = image(&dir);
        let heard_before = heard.clone();
        let (client, frame) = &schedule[kill_at - 1];
        apply(&mut c, &mut heard, *client, frame);
        let after = image(&dir);

        // At a frame boundary every appended byte is already synced.
        let mut synced = BTreeMap::new();
        for &session in heard.session_client.keys() {
            let spool = c.session(session).unwrap().spool.as_ref().unwrap();
            let name = spool
                .path()
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned();
            assert_eq!(
                spool.synced_bytes(),
                after[&name].len() as u64,
                "kill_at={kill_at}: {name} holds unsynced bytes"
            );
            synced.insert(name, spool.synced_bytes() as usize);
        }

        // (1) Crash inside the append frame `kill_at` made, before its
        // sync and ack: cut it at every byte. The card of that frame may
        // or may not have reached disk — try both.
        for (name, grown) in after.iter().filter(|(n, _)| n.ends_with(".iotj")) {
            let old = before.get(name).map_or(&[][..], Vec::as_slice);
            assert!(
                grown.starts_with(old),
                "kill_at={kill_at}: {name} was rewritten, not appended to"
            );
            for cut in old.len()..grown.len() {
                for cards in [&before, &after] {
                    let mut img: Image = before
                        .iter()
                        .filter(|(n, _)| n.ends_with(".iotj"))
                        .chain(cards.iter().filter(|(n, _)| n.ends_with(".card")))
                        .map(|(n, b)| (n.clone(), b.clone()))
                        .collect();
                    img.insert(name.clone(), grown[..cut].to_vec());
                    let what = format!("kill_at={kill_at} {name} cut at {cut}");
                    check_crash_image(&img, &heard_before, &inputs, &what);
                    images += 1;
                }
            }
        }

        // (2) The kill itself: every live spool ends in a torn tail.
        c.kill().unwrap();
        let killed = image(&dir);
        check_crash_image(&killed, &heard, &inputs, &format!("kill_at={kill_at}"));

        // (3) Cut that torn tail at every byte, one spool at a time.
        for (name, &len) in &synced {
            for cut in len..killed[name].len() {
                let mut img = killed.clone();
                img.insert(name.clone(), killed[name][..cut].to_vec());
                let what = format!("kill_at={kill_at} {name} tail cut at {cut}");
                check_crash_image(&img, &heard, &inputs, &what);
                images += 1;
            }
        }

        // (4) The file system drops everything after each spool's last
        // sync, all spools at once.
        let mut img = killed.clone();
        for (name, &len) in &synced {
            img.insert(name.clone(), killed[name][..len].to_vec());
        }
        check_crash_image(&img, &heard, &inputs, &format!("kill_at={kill_at} synced"));

        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(images > 1000, "only {images} crash images exercised");
}
