//! Per-session state: the lifecycle machine, the journal spool, and the
//! crash-survivable session card.
//!
//! A session moves through an explicit state machine:
//!
//! ```text
//! HANDSHAKE ──Hello──▶ STREAMING ──Bye──▶ SEALING ──▶ CLOSED
//!                          │                            (complete)
//!                          │ torn frame / early Bye /
//!                          │ idle sweep        └──────▶ DEGRADED
//!                          ▼                            (documented loss)
//!            (collector killed; journal torn on disk)
//!                      ORPHANED ──restart fsck──▶ DEGRADED | CLOSED
//!
//! federation handoff (see crate::federation):
//!   STREAMING ──Migrate──▶ DRAINING ──handoff done──▶ (moves away)
//!   (peer)                 MIGRATING ──final Handoff──▶ STREAMING
//! ```
//!
//! Two artifacts per session live in the spool directory:
//!
//! * the IOTJ journal (`sessNNN.iotj`), an append-only
//!   [`SpillWriter`] spool: each sealed segment is appended and
//!   `fdatasync`ed before the collector acks it `Sealed`, and no byte is
//!   ever rewritten;
//! * the *card* (`sessNNN.card`), a one-line sidecar recording how many
//!   records the client intends to stream. It is written on state
//!   transitions only — handshake (before any record lands), close,
//!   disconnect, drain and its abort, migration, recovery — never per
//!   seal, and always through [`write_atomic`], so a crash leaves the
//!   old card or the new one, never a torn one. The card is what makes
//!   post-crash completeness *exact*: recovery divides recovered records
//!   by the card's expectation instead of guessing from the tear.

use std::fs::File;
use std::io::Write;
use std::path::Path;

use iotrace_model::event::{TraceMeta, TraceRecord};
use iotrace_model::spill::SpillWriter;

/// Where a session is in its life. `Display` renders the lowercase
/// names used in cards and summary tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// `Hello` seen, `HelloAck` owed.
    Handshake,
    /// Records flowing.
    Streaming,
    /// `Bye` received; pending records being sealed.
    Sealing,
    /// Cleanly closed, all expected records durable.
    Closed,
    /// Closed with documented loss (torn frame, early close, or crash
    /// recovery) — `completeness < 1.0` says exactly how much.
    Degraded,
    /// Found abandoned in the spool at startup: the collector died while
    /// this session streamed. Transient — recovery turns it into
    /// `Closed` or `Degraded`.
    Orphaned,
    /// (source side) Sealed and being shipped to the federation partner.
    /// Record frames arriving meanwhile get `Busy` — the client backs
    /// off and re-offers, by which time the session lives elsewhere.
    Draining,
    /// (destination side) A handoff stand-in receiving sealed chunks
    /// from the partner. Becomes `Streaming` when the final chunk lands
    /// and its record count checks out.
    Migrating,
}

impl SessionState {
    pub fn is_terminal(self) -> bool {
        matches!(self, SessionState::Closed | SessionState::Degraded)
    }
}

impl std::fmt::Display for SessionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SessionState::Handshake => "handshake",
            SessionState::Streaming => "streaming",
            SessionState::Sealing => "sealing",
            SessionState::Closed => "closed",
            SessionState::Degraded => "degraded",
            SessionState::Orphaned => "orphaned",
            SessionState::Draining => "draining",
            SessionState::Migrating => "migrating",
        })
    }
}

/// Parse a state name as rendered by `Display`.
pub fn parse_state(s: &str) -> Option<SessionState> {
    Some(match s {
        "handshake" => SessionState::Handshake,
        "streaming" => SessionState::Streaming,
        "sealing" => SessionState::Sealing,
        "closed" => SessionState::Closed,
        "degraded" => SessionState::Degraded,
        "orphaned" => SessionState::Orphaned,
        "draining" => SessionState::Draining,
        "migrating" => SessionState::Migrating,
        _ => return None,
    })
}

/// The crash-survivable sidecar: one line, written at handshake and
/// replaced on every state transition that must outlive the process.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionCard {
    pub session: u32,
    /// Records the client declared it would stream (0 = unknown).
    pub expected: u64,
    pub state: SessionState,
    /// Durable records at the time the card was written (only current
    /// for terminal states; a live card is not rewritten per seal, so
    /// its count is a floor).
    pub records: u64,
    /// Completeness stamped at close/recovery; 1.0 while streaming.
    pub completeness: f64,
    /// Set on a migrated-in session: `<collector>/<stem>` naming the
    /// source spool copy. Federated recovery uses it to reunite a
    /// session split across two spool directories.
    pub origin: Option<String>,
}

impl SessionCard {
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "session={} expected={} state={} records={} completeness={:.6}",
            self.session, self.expected, self.state, self.records, self.completeness
        );
        if let Some(origin) = &self.origin {
            line.push_str(&format!(" origin={origin}"));
        }
        line
    }

    pub fn parse_line(s: &str) -> Option<SessionCard> {
        let mut session = None;
        let mut expected = None;
        let mut state = None;
        let mut records = None;
        let mut completeness = None;
        let mut origin = None;
        for part in s.split_whitespace() {
            let (k, v) = part.split_once('=')?;
            match k {
                "session" => session = v.parse().ok(),
                "expected" => expected = v.parse().ok(),
                "state" => state = parse_state(v),
                "records" => records = v.parse().ok(),
                "completeness" => completeness = v.parse().ok(),
                "origin" => origin = Some(v.to_string()),
                _ => return None,
            }
        }
        Some(SessionCard {
            session: session?,
            expected: expected?,
            state: state?,
            records: records?,
            completeness: completeness?,
            origin,
        })
    }

    /// This card brought up to date with `sealed`, the records its
    /// journal's sealed prefix holds. A terminal card is exact as
    /// written; a live card is written on transitions only, so its count
    /// and completeness come from the journal instead.
    pub fn with_sealed(&self, sealed: u64) -> SessionCard {
        if self.state.is_terminal() {
            return self.clone();
        }
        SessionCard {
            records: sealed,
            completeness: completeness(sealed, self.expected),
            ..self.clone()
        }
    }

    /// Replace this session's card in spool directory `dir`, atomically.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        let path = dir.join(format!("{}.card", session_stem(self.session)));
        write_atomic(&path, format!("{}\n", self.to_line()).as_bytes())
    }
}

/// Replace `path` with `bytes` so that a crash at any point leaves
/// either the old file or the new one: write a temp file beside it,
/// fsync it, rename it over `path`, then fsync the directory so the
/// rename itself is durable. Every non-append write of a spool
/// directory — cards, recovery rewrites, digests — goes through here.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| format!("write {}: not a file path", path.display()))?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = File::create(&tmp).map_err(err)?;
    file.write_all(bytes).map_err(err)?;
    file.sync_all().map_err(err)?;
    std::fs::rename(&tmp, path).map_err(err)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir).and_then(|d| d.sync_all()).map_err(err)
}

/// Delete the `*.tmp` files that a crash inside [`write_atomic`] left
/// in `dir`. The crash came before the rename, so the file each one was
/// replacing is intact; recovery rewrites it again if it must.
pub(crate) fn remove_temp_files(dir: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("clean {}: {e}", dir.display());
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let path = entry.map_err(err)?.path();
        if path.extension().is_some_and(|x| x == "tmp") && path.is_file() {
            std::fs::remove_file(&path).map_err(err)?;
        }
    }
    Ok(())
}

/// Completeness of `sealed` records against a declared expectation:
/// exact when the client declared one, 1.0 while nothing says otherwise.
fn completeness(sealed: u64, expected: u64) -> f64 {
    if expected == 0 {
        return 1.0;
    }
    (sealed as f64 / expected as f64).clamp(0.0, 1.0)
}

/// The spool file stem for session `id`: `sess007` → `sess007.iotj` +
/// `sess007.card`.
pub fn session_stem(id: u32) -> String {
    format!("sess{id:03}")
}

/// One live session inside the collector.
pub struct Session {
    pub id: u32,
    pub meta: TraceMeta,
    pub expected: u64,
    pub state: SessionState,
    /// The session's append-only journal spool. `None` only for a
    /// `Migrating` stand-in whose header chunk has not landed yet.
    pub spool: Option<SpillWriter>,
    /// Records appended (acked) so far.
    pub appended: u64,
    /// Highest `Records.seq` applied; frames must arrive in order.
    pub last_seq: u64,
    /// Appended records not yet folded into the incremental stats —
    /// drained as their segments seal.
    pub unfolded: Vec<TraceRecord>,
    /// Records already folded (== sealed records already durable).
    pub folded: u64,
    /// Set on a migrated-in session: where the source copy lives
    /// (`<collector>/<stem>`), persisted into the card.
    pub origin: Option<String>,
    /// Handoff receive state, present only while `Migrating`.
    pub recv: Option<HandoffRecv>,
}

/// Destination-side handoff progress. The chunks themselves go straight
/// into the stand-in's spool: chunks arrive along journal structure
/// (header, then one sealed segment each), so the spool is a valid
/// sealed journal after every chunk and a kill between chunks tears
/// nothing.
pub struct HandoffRecv {
    /// Next chunk seq expected (1-based; 1 is the header chunk).
    pub next_chunk: u64,
    /// Total chunks the source announced.
    pub total_chunks: u64,
    /// Sealed record count the source promised for the full spool.
    pub promised: u64,
}

impl Session {
    /// A session in `Handshake` with no spool yet; the collector opens
    /// the spool file once it knows the container version.
    pub fn new(id: u32, meta: TraceMeta, expected: u64) -> Self {
        Session {
            id,
            meta,
            expected,
            state: SessionState::Handshake,
            spool: None,
            appended: 0,
            last_seq: 0,
            unfolded: Vec::new(),
            folded: 0,
            origin: None,
            recv: None,
        }
    }

    /// Durable (sealed, and once acked also synced) record count.
    pub fn sealed(&self) -> u64 {
        self.spool.as_ref().map_or(0, |w| w.sealed_records())
    }

    /// The card describing this session's current persistent state.
    pub fn card(&self) -> SessionCard {
        SessionCard {
            session: self.id,
            expected: self.expected,
            state: self.state,
            records: self.sealed(),
            completeness: self.completeness(),
            origin: self.origin.clone(),
        }
    }

    /// Completeness against the declared expectation: exact when the
    /// client declared one, 1.0 while nothing says otherwise.
    pub fn completeness(&self) -> f64 {
        completeness(self.sealed(), self.expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn card_line_roundtrips() {
        let c = SessionCard {
            session: 12,
            expected: 4096,
            state: SessionState::Degraded,
            records: 1024,
            completeness: 0.25,
            origin: None,
        };
        assert_eq!(SessionCard::parse_line(&c.to_line()), Some(c));
        assert_eq!(SessionCard::parse_line("session=1 bogus"), None);
        assert_eq!(
            SessionCard::parse_line("session=1 expected=2 state=warp records=0 completeness=1"),
            None
        );
    }

    #[test]
    fn card_origin_roundtrips_and_old_cards_still_parse() {
        let c = SessionCard {
            session: 3,
            expected: 96,
            state: SessionState::Migrating,
            records: 64,
            completeness: 0.666667,
            origin: Some("a/sess001".to_string()),
        };
        let line = c.to_line();
        assert!(line.ends_with("origin=a/sess001"));
        assert_eq!(SessionCard::parse_line(&line), Some(c));
        // A pre-federation card (no origin key) parses with origin=None.
        let old = SessionCard::parse_line(
            "session=1 expected=2 state=closed records=2 completeness=1.000000",
        )
        .expect("old card parses");
        assert_eq!(old.origin, None);
    }

    #[test]
    fn states_render_and_parse() {
        for s in [
            SessionState::Handshake,
            SessionState::Streaming,
            SessionState::Sealing,
            SessionState::Closed,
            SessionState::Degraded,
            SessionState::Orphaned,
            SessionState::Draining,
            SessionState::Migrating,
        ] {
            assert_eq!(parse_state(&s.to_string()), Some(s));
        }
        assert!(SessionState::Closed.is_terminal());
        assert!(SessionState::Degraded.is_terminal());
        assert!(!SessionState::Streaming.is_terminal());
        assert!(!SessionState::Draining.is_terminal(), "drain is transient");
        assert!(!SessionState::Migrating.is_terminal());
    }

    #[test]
    fn completeness_tracks_sealed_over_expected() {
        let meta = TraceMeta::new("/a", 0, 0, "t");
        let s = Session::new(1, meta, 100);
        assert_eq!(s.completeness(), 0.0);
        let meta2 = TraceMeta::new("/a", 0, 0, "t");
        let s2 = Session::new(2, meta2, 0);
        assert_eq!(s2.completeness(), 1.0, "unknown expectation claims 1.0");
    }

    #[test]
    fn write_atomic_replaces_whole_files_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("iotrace-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sess001.card");
        write_atomic(&path, b"a long first version\n").unwrap();
        write_atomic(&path, b"short\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"short\n");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("sess001.card")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
