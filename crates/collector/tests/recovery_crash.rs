//! Crash points inside recovery. Every file recovery writes goes
//! through `write_atomic` (temp file, fsync, rename), so a crash inside
//! it leaves the old file intact plus a `<name>.tmp` holding any prefix
//! of the new bytes. For every file of the recovered directory, and at
//! several cuts of its recovered bytes, this plants such a `.tmp` next
//! to the untouched pre-recovery file and recovers again: the result
//! must be byte-identical to a recovery that never crashed, with no
//! `.tmp` left. A file recovery rewrites again reuses the same temp
//! name; the files it leaves alone (a cleanly closed session's) are the
//! ones a stale `.tmp` would otherwise outlive.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use iotrace_collector::soak::{run_soak, synth_client_traces, SoakConfig, SoakOutcome};
use iotrace_collector::{
    recover_federation, recover_spool, run_federation, CollectorConfig, FederationConfig,
    FederationOutcome,
};
use iotrace_sim::fault::{Fault, FaultPlan};

const SEGMENT_RECORDS: usize = 8;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iotrace-reccrash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn soak_cfg() -> SoakConfig {
    SoakConfig {
        clients: 3,
        records_per_client: 48,
        frame_records: 16,
        collector: CollectorConfig {
            segment_records: SEGMENT_RECORDS,
            queue_capacity: 8,
            drain_per_tick: 4,
            ..CollectorConfig::default()
        },
        ..SoakConfig::default()
    }
}

/// Every file under `root`, recursively, keyed by its relative path.
fn image(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for e in std::fs::read_dir(dir).unwrap() {
            let path = e.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn restore(img: &BTreeMap<PathBuf, Vec<u8>>, root: &Path) {
    let _ = std::fs::remove_dir_all(root);
    for (rel, bytes) in img {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }
}

/// Recover a copy of `torn` cleanly, then once per (file, cut) with a
/// planted `.tmp`; every recovery must end in the clean one's bytes.
/// Returns how many crash images were checked.
fn check_crashes_inside_recovery(torn: &Path, tag: &str, recover: impl Fn(&Path)) -> usize {
    let before = image(torn);
    let clean = tmpdir(&format!("{tag}-clean"));
    restore(&before, &clean);
    recover(&clean);
    let want = image(&clean);
    assert_ne!(want, before, "{tag}: recovery must have work to do");
    assert!(want
        .keys()
        .all(|p| p.extension().is_none_or(|x| x != "tmp")));

    let dir = tmpdir(&format!("{tag}-crash"));
    let mut checked = 0;
    for (rel, new) in &want {
        let mut cuts = vec![0, 1, new.len() / 2, new.len().saturating_sub(1), new.len()];
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            restore(&before, &dir);
            let mut tmp = rel.clone().into_os_string();
            tmp.push(".tmp");
            std::fs::write(dir.join(tmp), &new[..cut.min(new.len())]).unwrap();
            recover(&dir);
            assert!(
                image(&dir) == want,
                "{tag}: {} cut at {cut} of {}: recovery differs from a clean one",
                rel.display(),
                new.len()
            );
            checked += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&dir);
    checked
}

#[test]
fn crash_inside_spool_recovery_leaves_no_temp_and_recovers_identically() {
    // Killed at the last frame: two sessions are orphans recovery
    // rewrites, one closed cleanly and recovery leaves its files alone.
    let torn = tmpdir("spool");
    let mut cfg = soak_cfg();
    cfg.kill_at_frame = Some(14);
    let rep = run_soak(&torn, &cfg, &FaultPlan::clean(), None).unwrap();
    assert_eq!(rep.outcome, SoakOutcome::Killed { at_frame: 14 });
    assert!(rep.sessions.iter().any(|s| s.state == "closed"), "{rep:?}");
    assert!(rep.sessions.iter().any(|s| s.state != "closed"), "{rep:?}");
    let checked = check_crashes_inside_recovery(&torn, "spool", |d| {
        recover_spool(d, SEGMENT_RECORDS).unwrap();
    });
    assert!(checked >= 5 * 3, "{checked} crash images");
    let _ = std::fs::remove_dir_all(&torn);
}

#[test]
fn crash_inside_federation_recovery_leaves_no_temp_and_recovers_identically() {
    // Kill the source after two handoff chunks: the source still holds
    // the whole session, the destination a prefix, so reunite rewrites
    // the destination's journal with the source's bytes.
    let root = tmpdir("fed");
    let (da, db) = (root.join("coll-a"), root.join("coll-b"));
    let cfg = FederationConfig {
        soak: soak_cfg(),
        kill_source_after_chunks: Some(2),
        ..FederationConfig::default()
    };
    let inputs = synth_client_traces(3, 48, cfg.soak.seed);
    let plan = FaultPlan {
        seed: 9,
        faults: vec![Fault::CollectorMigrate {
            client: 1,
            at_frame: 3,
        }],
    };
    let rep = run_federation(&da, &db, &cfg, &plan, Some(&inputs)).unwrap();
    assert!(
        matches!(rep.outcome, FederationOutcome::SourceKilled { .. }),
        "{:?}",
        rep.outcome
    );
    let checked = check_crashes_inside_recovery(&root, "fed", |d| {
        let rec = recover_federation(d, SEGMENT_RECORDS).unwrap();
        assert_eq!(rec.reunited, 1, "{}", rec.render());
    });
    assert!(checked >= 5 * 3, "{checked} crash images");
    let _ = std::fs::remove_dir_all(&root);
}
