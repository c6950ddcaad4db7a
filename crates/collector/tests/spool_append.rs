//! The collector's spool is append-only: a seal writes the new segment
//! and nothing else, so its cost does not depend on how long the session
//! already is.
//!
//! One long session (over a thousand seals) streams through a
//! [`Collector`], one sealed segment per `Records` frame. After every
//! `Sealed` ack the test asserts that the previous on-disk journal is a
//! prefix of the current one and that the bytes the collector wrote for
//! that seal are exactly the bytes the journal grew by. At close, the
//! journal must be byte-identical to the one-shot journal encoding of the
//! same records, in both container versions.

use std::path::PathBuf;

use iotrace_collector::soak::synth_client_traces;
use iotrace_collector::{encode_frame, Collector, CollectorConfig, Frame};
use iotrace_model::journal::encode_journal_versioned;

const SEGMENT_RECORDS: usize = 8;
const SEALS: usize = 1024;
/// One short final segment on top, sealed by `Bye`.
const RECORDS: usize = SEALS * SEGMENT_RECORDS + 5;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace-append-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Bytes this thread has passed to `write` so far. The collector is
/// single-threaded and runs on the test thread, so deltas of this
/// counter are exactly what the collector wrote.
#[cfg(target_os = "linux")]
fn thread_wchar() -> u64 {
    let io = std::fs::read_to_string("/proc/thread-self/io").expect("per-thread io accounting");
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("wchar line")
}

#[cfg(not(target_os = "linux"))]
fn thread_wchar() -> u64 {
    0
}

fn stream_long_session(v2_spool: bool) {
    let version = if v2_spool { 2 } else { 1 };
    let dir = tmpdir(&format!("v{version}"));
    let mut c = Collector::open(
        &dir,
        CollectorConfig {
            segment_records: SEGMENT_RECORDS,
            v2_spool,
            ..CollectorConfig::default()
        },
    )
    .unwrap();
    let input = &synth_client_traces(1, RECORDS, 11)[0];
    let journal = dir.join("sess000.iotj");

    let send = |c: &mut Collector, frame: Frame| -> (Vec<Frame>, u64) {
        let w0 = thread_wchar();
        c.offer(0, encode_frame(&frame)).unwrap();
        c.drain(1, None).unwrap();
        let written = thread_wchar() - w0;
        let replies = c.take_outbox().into_iter().map(|(_, f)| f).collect();
        (replies, written)
    };

    send(
        &mut c,
        Frame::Hello {
            meta: input.meta.clone(),
            expected_records: RECORDS as u64,
        },
    );
    let mut on_disk = std::fs::read(&journal).unwrap();
    let mut per_seal = Vec::new();
    let chunks: Vec<_> = input.records.chunks(SEGMENT_RECORDS).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        let (replies, written) = send(
            &mut c,
            Frame::Records {
                seq: i as u64 + 1,
                records: chunk.to_vec(),
            },
        );
        if chunk.len() < SEGMENT_RECORDS {
            assert_eq!(replies, vec![Frame::Ack { seq: i as u64 + 1 }]);
            continue;
        }
        let sealed = ((i + 1) * SEGMENT_RECORDS) as u64;
        assert_eq!(
            replies,
            vec![
                Frame::Ack { seq: i as u64 + 1 },
                Frame::Sealed { records: sealed }
            ]
        );
        let now = std::fs::read(&journal).unwrap();
        assert!(
            now.starts_with(&on_disk),
            "v{version} seal {i}: bytes already on disk changed"
        );
        let grown = (now.len() - on_disk.len()) as u64;
        if cfg!(target_os = "linux") {
            assert_eq!(
                written, grown,
                "v{version} seal {i}: wrote {written} bytes for a {grown}-byte segment"
            );
        }
        per_seal.push(grown.max(written));
        on_disk = now;
    }
    assert_eq!(per_seal.len(), SEALS);
    // Per-seal cost is flat: the last seals write no more than the
    // first ones (segments of the same record count differ a little in
    // encoded size, never by the session's length).
    let first = per_seal[..128].iter().max().unwrap();
    let last = per_seal[SEALS - 128..].iter().max().unwrap();
    assert!(
        *last <= 2 * *first,
        "v{version}: a late seal wrote {last} bytes, an early one at most {first}"
    );

    let (replies, _) = send(
        &mut c,
        Frame::Bye {
            frames_sent: chunks.len() as u64,
        },
    );
    assert!(
        replies.contains(&Frame::ByeAck {
            records: RECORDS as u64
        }),
        "{replies:?}"
    );
    let closed = std::fs::read(&journal).unwrap();
    assert!(closed.starts_with(&on_disk));
    assert_eq!(
        closed,
        encode_journal_versioned(input, SEGMENT_RECORDS, version),
        "v{version}: the closed spool differs from the one-shot journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn long_v1_session_only_appends_and_closes_byte_identical() {
    stream_long_session(false);
}

#[test]
fn long_v2_session_only_appends_and_closes_byte_identical() {
    stream_long_session(true);
}
