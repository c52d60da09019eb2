//! Crawl-state journal: the crawler's one durable state path.
//!
//! A [`StateJournal`] is a [`dwc_store::FrameLog`] whose frame 0 holds a
//! full v2 checkpoint blob (the *base*) and every later frame a small text
//! *delta* describing exactly what one completed query changed — new
//! vocabulary entries, status transitions, `L_queried` growth, harvested
//! records, and the cost counters. Each frame is checksummed by the frame
//! log, and recovery replays the longest valid prefix: a crash mid-append
//! loses at most the query being framed.
//!
//! [`StateJournal::write_base`] compacts the journal onto a fresh base. It
//! never rewrites the live file: it writes a one-frame log to `<path>.tmp`
//! and syncs it, rotates `<path>` to `<path>.bak`, renames the temporary
//! into place and syncs the directory. At every instant a complete journal
//! is on disk — a crash before the rotation leaves the old log as the
//! primary, a crash between the renames leaves it as `.bak` — and both
//! generations describe the same state. [`StateJournal::recover`] replays `<path>` and falls
//! back to `<path>.bak` when the primary has no valid base frame.
//!
//! The crawler compacts at crawl start, on resume, and whenever the delta
//! bytes since the base reach the base frame's size
//! ([`StateJournal::due`]). A compaction therefore writes at most twice
//! the delta bytes it absorbs, the file stays under twice its base plus one
//! delta frame, and a crawl whose state grows steadily compacts O(log n)
//! times in n queries.
//!
//! Delta frame payload (line-oriented, same percent-escaping as the
//! checkpoint format):
//!
//! ```text
//! d\t<rounds>\t<queries>          cost counters after the query
//! v\t<attr>\t<string>\t<status>   one per new vocabulary id, in id order
//! s\t<index>\t<status>            status change of a pre-existing id
//! qa\t<id,id,...>                 ids appended to L_queried
//! qf\t<id,id,...>                 full L_queried replacement (requeue path)
//! r\t<key>\t<id,id,...>           one per newly harvested record
//! ```

use crate::checkpoint::{escape, unescape, Checkpoint, CheckpointError};
use crate::state::{CandStatus, CrawlState};
use dwc_store::FrameLog;
use std::io;
use std::path::{Path, PathBuf};

fn status_char(s: CandStatus) -> char {
    match s {
        CandStatus::Undiscovered => 'U',
        CandStatus::Frontier => 'F',
        CandStatus::Queried => 'Q',
    }
}

fn status_from(c: &str) -> Result<CandStatus, CheckpointError> {
    match c {
        "U" => Ok(CandStatus::Undiscovered),
        "F" => Ok(CandStatus::Frontier),
        "Q" => Ok(CandStatus::Queried),
        _ => Err(CheckpointError::Malformed("journal status char")),
    }
}

fn parse_ids(s: &str, what: &'static str) -> Result<Vec<u32>, CheckpointError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|t| t.parse().map_err(|_| CheckpointError::Malformed(what))).collect()
}

/// What [`StateJournal::recover`] found on disk.
#[derive(Debug)]
pub struct JournalRecovery {
    /// The state at the last intact delta frame (or the base, if no delta
    /// survived), ready for [`crate::Crawler::resume`].
    pub checkpoint: Checkpoint,
    /// Delta frames applied on top of the base.
    pub deltas_applied: u64,
    /// Whether a torn or corrupt tail was discarded during replay.
    pub torn: bool,
    /// Whether the primary file had no valid base frame and the previous
    /// generation at `<path>.bak` was replayed instead.
    pub from_backup: bool,
}

/// Per-query state journal over a [`FrameLog`], compacted by atomic
/// rename (see the module docs).
#[derive(Debug)]
pub struct StateJournal {
    path: PathBuf,
    /// The live log; `None` until the first base frame is written.
    log: Option<FrameLog>,
    /// Bytes of the live log's base frame.
    base_len: u64,
    /// Log length at which [`StateJournal::due`] turns true.
    compact_at: u64,
    /// Shadow of the crawl state at the last appended frame, used to diff.
    shadow_status: Vec<CandStatus>,
    shadow_vocab_len: usize,
    shadow_records_len: usize,
    shadow_queried: Vec<u32>,
}

impl StateJournal {
    /// A journal at `path`. Nothing on disk changes until the first
    /// [`StateJournal::write_base`].
    pub fn new(path: impl Into<PathBuf>) -> Self {
        StateJournal {
            path: path.into(),
            log: None,
            base_len: 0,
            compact_at: 0,
            shadow_status: Vec::new(),
            shadow_vocab_len: 0,
            shadow_records_len: 0,
            shadow_queried: Vec::new(),
        }
    }

    /// Where the previous generation of the journal at `path` is kept.
    pub fn backup_path(path: &Path) -> PathBuf {
        sibling(path, ".bak")
    }

    /// Whether the base frame has been written yet.
    pub fn has_base(&self) -> bool {
        self.log.is_some()
    }

    /// Frames in the live log (base + deltas).
    pub fn frames(&self) -> u64 {
        self.log.as_ref().map_or(0, FrameLog::frames)
    }

    /// Whether the deltas since the base have grown to the base frame's
    /// size, so the next [`StateJournal::write_base`] is due.
    pub fn due(&self) -> bool {
        self.log.as_ref().is_some_and(|log| log.len() >= self.compact_at)
    }

    /// Compacts the journal onto `state` at these cost counters as its new
    /// base: writes a one-frame log to `<path>.tmp` and syncs it, rotates
    /// the current file to `<path>.bak`, renames the temporary into place
    /// and syncs the directory. Returns whether a previous generation was
    /// rotated. On failure, deltas keep appending to whichever log is live,
    /// and the next compaction is put off by another base's worth of
    /// deltas.
    pub fn write_base(
        &mut self,
        state: &CrawlState,
        rounds: u64,
        queries: u64,
    ) -> io::Result<bool> {
        let written = self.compact(state, rounds, queries);
        if written.is_err() {
            if let Some(log) = &self.log {
                self.compact_at = log.len() + self.base_len;
            }
        }
        written
    }

    fn compact(&mut self, state: &CrawlState, rounds: u64, queries: u64) -> io::Result<bool> {
        // A compaction renames files: a device node or directory at `path`
        // is never a journal, and must not be moved aside.
        let rotate = match std::fs::metadata(&self.path) {
            Ok(meta) if meta.is_file() => true,
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "journal path is not a regular file",
                ))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        let tmp = sibling(&self.path, ".tmp");
        let mut log = FrameLog::create(&tmp)?;
        log.append(state.checkpoint_text(rounds, queries).as_bytes())?;
        log.sync()?;
        if rotate {
            std::fs::rename(&self.path, Self::backup_path(&self.path))?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.base_len = log.len();
        self.compact_at = 2 * log.len();
        self.log = Some(log);
        self.shadow_status.clear();
        self.shadow_status.extend_from_slice(&state.status);
        self.shadow_vocab_len = state.vocab.len();
        self.shadow_records_len = state.local.num_records();
        self.shadow_queried = state.queried.iter().map(|v| v.0).collect();
        // The renames are durable only once their directory is synced.
        let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(rotate)
    }

    /// Appends one delta frame: everything `state` changed since the last
    /// frame, plus the cost counters. No-op diff still writes a frame (the
    /// counters advanced).
    ///
    /// # Panics
    /// Panics if called before [`StateJournal::write_base`].
    pub fn append_delta(
        &mut self,
        state: &CrawlState,
        rounds: u64,
        queries: u64,
    ) -> io::Result<()> {
        let log = self.log.as_mut().expect("journal delta before base frame");
        let mut out = String::new();
        out.push_str(&format!("d\t{rounds}\t{queries}\n"));
        for i in self.shadow_vocab_len..state.vocab.len() {
            let v = dwc_model::ValueId(i as u32);
            out.push_str(&format!(
                "v\t{}\t{}\t{}\n",
                state.vocab.attr_of(v).0,
                escape(state.vocab.value_str(v)),
                status_char(state.status[i]),
            ));
        }
        for i in 0..self.shadow_vocab_len {
            if state.status[i] != self.shadow_status[i] {
                out.push_str(&format!("s\t{i}\t{}\n", status_char(state.status[i])));
            }
        }
        let queried: Vec<u32> = state.queried.iter().map(|v| v.0).collect();
        if queried.len() >= self.shadow_queried.len()
            && queried[..self.shadow_queried.len()] == self.shadow_queried[..]
        {
            if queried.len() > self.shadow_queried.len() {
                let appended: Vec<String> =
                    queried[self.shadow_queried.len()..].iter().map(u32::to_string).collect();
                out.push_str(&format!("qa\t{}\n", appended.join(",")));
            }
        } else {
            // Requeue (or any reordering): frame the whole list. L_queried
            // holds one id per issued query, so this stays small.
            let full: Vec<String> = queried.iter().map(u32::to_string).collect();
            out.push_str(&format!("qf\t{}\n", full.join(",")));
        }
        for (key, vals) in state.local.keyed_since(self.shadow_records_len) {
            let ids: Vec<String> = vals.iter().map(|v| v.0.to_string()).collect();
            out.push_str(&format!("r\t{key}\t{}\n", ids.join(",")));
        }
        log.append(out.as_bytes())?;
        self.shadow_status.clear();
        self.shadow_status.extend_from_slice(&state.status);
        self.shadow_vocab_len = state.vocab.len();
        self.shadow_records_len = state.local.num_records();
        self.shadow_queried = queried;
        Ok(())
    }

    /// Replays the journal at `path`: parses the base checkpoint from frame
    /// 0 and folds every intact delta frame into it. When `path` yields no
    /// valid base frame, the previous generation at `<path>.bak` is
    /// replayed instead. Returns `Ok(None)` when neither file holds a base
    /// frame (missing, empty or torn before the first frame ends); a base
    /// or delta frame that passes its checksum but does not parse, with no
    /// backup to fall back on, is an `InvalidData` error.
    pub fn recover(path: &Path) -> io::Result<Option<JournalRecovery>> {
        match replay(path) {
            Ok(Some(rec)) => Ok(Some(rec)),
            primary => match replay(&Self::backup_path(path)) {
                Ok(Some(rec)) => Ok(Some(JournalRecovery { from_backup: true, ..rec })),
                _ => primary,
            },
        }
    }
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

/// Replays one journal file, without the backup fallback.
fn replay(path: &Path) -> io::Result<Option<JournalRecovery>> {
    let replay = FrameLog::replay(path)?;
    let Some(base) = replay.frames.first() else {
        return Ok(None);
    };
    let text = std::str::from_utf8(base)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "journal base not UTF-8"))?;
    let mut cp = Checkpoint::from_text(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("journal base: {e}")))?;
    let mut deltas_applied = 0u64;
    for frame in &replay.frames[1..] {
        let text = std::str::from_utf8(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "journal delta not UTF-8"))?;
        apply_delta(&mut cp, text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("journal delta: {e}"))
        })?;
        deltas_applied += 1;
    }
    Ok(Some(JournalRecovery {
        checkpoint: cp,
        deltas_applied,
        torn: replay.torn,
        from_backup: false,
    }))
}

/// Folds one delta frame into a checkpoint.
fn apply_delta(cp: &mut Checkpoint, text: &str) -> Result<(), CheckpointError> {
    for line in text.lines() {
        let mut parts = line.split('\t');
        let op = parts.next().unwrap_or("");
        match op {
            "d" => {
                let rounds = parts.next().ok_or(CheckpointError::Malformed("journal rounds"))?;
                let queries = parts.next().ok_or(CheckpointError::Malformed("journal queries"))?;
                cp.rounds =
                    rounds.parse().map_err(|_| CheckpointError::Malformed("journal rounds"))?;
                cp.queries =
                    queries.parse().map_err(|_| CheckpointError::Malformed("journal queries"))?;
            }
            "v" => {
                let attr: u16 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(CheckpointError::Malformed("journal value attr"))?;
                let s = unescape(parts.next().ok_or(CheckpointError::Malformed("journal value"))?)?;
                let st =
                    status_from(parts.next().ok_or(CheckpointError::Malformed("journal value"))?)?;
                cp.values.push((attr, s));
                cp.status.push(st);
            }
            "s" => {
                let idx: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(CheckpointError::Malformed("journal status index"))?;
                let st =
                    status_from(parts.next().ok_or(CheckpointError::Malformed("journal status"))?)?;
                *cp.status
                    .get_mut(idx)
                    .ok_or(CheckpointError::Malformed("journal status index"))? = st;
            }
            "qa" => {
                let ids = parse_ids(parts.next().unwrap_or(""), "journal queried id")?;
                cp.queried.extend(ids);
            }
            "qf" => {
                cp.queried = parse_ids(parts.next().unwrap_or(""), "journal queried id")?;
            }
            "r" => {
                let key: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(CheckpointError::Malformed("journal record key"))?;
                let ids = parse_ids(parts.next().unwrap_or(""), "journal record value")?;
                cp.records.push((key, ids));
            }
            _ => return Err(CheckpointError::Malformed("journal op")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_model::AttrId;

    /// A fresh directory per test: a journal owns its `.tmp` and `.bak`
    /// siblings too.
    fn scratch(name: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dwc-journal-{}-{n}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("crawl.jnl")
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    fn demo(rounds: u64) -> Checkpoint {
        Checkpoint {
            attr_names: vec!["A".into()],
            attr_queriable: vec![true],
            page_size: 10,
            keyword_mode: false,
            values: vec![(0, "a1".into())],
            status: vec![CandStatus::Frontier],
            queried: vec![],
            records: vec![],
            rounds,
            queries: rounds / 2,
        }
    }

    /// A one-attribute crawl state after querying `a1` and harvesting one
    /// record that reveals `a2`.
    fn queried_state() -> CrawlState {
        let mut st = CrawlState::new(vec!["A".into()], vec![true], 10);
        let a1 = st.intern(AttrId(0), "a1");
        st.status[a1.index()] = CandStatus::Queried;
        st.queried.push(a1);
        let a2 = st.intern(AttrId(0), "a2");
        st.status[a2.index()] = CandStatus::Frontier;
        st.local.insert(7, vec![a1, a2]);
        st
    }

    /// Compacts `j` onto the state `cp` holds.
    fn base(j: &mut StateJournal, cp: &Checkpoint) -> io::Result<bool> {
        j.write_base(&CrawlState::from_checkpoint(cp), cp.rounds, cp.queries)
    }

    fn recover(path: &Path) -> JournalRecovery {
        StateJournal::recover(path).unwrap().expect("a base frame survives")
    }

    #[test]
    fn base_only_recovers_the_checkpoint() {
        let path = scratch("base");
        let mut j = StateJournal::new(&path);
        assert!(!j.has_base());
        assert!(!base(&mut j, &demo(0)).unwrap(), "nothing to rotate on the first base");
        let rec = recover(&path);
        assert_eq!(rec.checkpoint, demo(0));
        assert_eq!(rec.deltas_applied, 0);
        assert!(!rec.torn && !rec.from_backup);
        assert!(!sibling(&path, ".tmp").exists(), "the temporary must be renamed away");
        cleanup(&path);
    }

    #[test]
    fn base_creates_parent_directories() {
        let path = scratch("deep");
        let deep = path.parent().unwrap().join("a/b/crawl.jnl");
        base(&mut StateJournal::new(&deep), &demo(2)).unwrap();
        assert_eq!(recover(&deep).checkpoint, demo(2));
        cleanup(&path);
    }

    #[test]
    fn missing_or_baseless_journal_recovers_none() {
        let path = scratch("missing");
        assert!(StateJournal::recover(&path).unwrap().is_none());
        let _ = StateJournal::new(&path);
        assert!(!path.exists(), "a journal touches the disk only at its first base");
        std::fs::write(&path, b"").unwrap();
        assert!(StateJournal::recover(&path).unwrap().is_none(), "no base frame");
        cleanup(&path);
    }

    #[test]
    fn deltas_replay_state_changes() {
        let path = scratch("deltas");
        let mut j = StateJournal::new(&path);
        base(&mut j, &demo(0)).unwrap();

        let mut st = queried_state();
        j.append_delta(&st, 3, 1).unwrap();
        let rec = recover(&path);
        assert_eq!(rec.deltas_applied, 1);
        let cp = rec.checkpoint;
        assert_eq!((cp.rounds, cp.queries), (3, 1));
        assert_eq!(cp.values, vec![(0, "a1".into()), (0, "a2".into())]);
        assert_eq!(cp.status, vec![CandStatus::Queried, CandStatus::Frontier]);
        assert_eq!(cp.queried, vec![0]);
        assert_eq!(cp.records, vec![(7, vec![0, 1])]);

        // A requeue pops L_queried and flips the status back: the journal
        // frames the full list.
        st.queried.pop();
        st.status[0] = CandStatus::Frontier;
        j.append_delta(&st, 4, 2).unwrap();
        let rec = recover(&path);
        assert_eq!(rec.checkpoint.queried, Vec::<u32>::new());
        assert_eq!(rec.checkpoint.status[0], CandStatus::Frontier);
        cleanup(&path);
    }

    #[test]
    fn compaction_drops_absorbed_deltas_and_keeps_the_old_generation() {
        let path = scratch("rebase");
        let mut j = StateJournal::new(&path);
        base(&mut j, &demo(0)).unwrap();
        j.append_delta(&queried_state(), 1, 1).unwrap();
        assert_eq!(j.frames(), 2);
        let before = recover(&path).checkpoint;
        assert!(base(&mut j, &demo(9)).unwrap(), "the second base rotates the first");
        assert_eq!(j.frames(), 1, "compaction drops absorbed deltas");
        let rec = recover(&path);
        assert_eq!((rec.checkpoint.rounds, rec.deltas_applied), (9, 0));
        let bak = recover(&StateJournal::backup_path(&path));
        assert_eq!(bak.checkpoint, before, "the previous generation survives as .bak");
        cleanup(&path);
    }

    #[test]
    fn compaction_is_due_once_deltas_reach_the_base_size() {
        let path = scratch("due");
        let mut j = StateJournal::new(&path);
        assert!(!j.due(), "no base, nothing to compact");
        base(&mut j, &demo(0)).unwrap();
        let base_len = std::fs::metadata(&path).unwrap().len();
        let st = queried_state();
        let mut queries = 0;
        while !j.due() {
            assert!(std::fs::metadata(&path).unwrap().len() < 2 * base_len);
            queries += 1;
            j.append_delta(&st, queries, queries).unwrap();
        }
        assert!(std::fs::metadata(&path).unwrap().len() >= 2 * base_len);
        base(&mut j, &recover(&path).checkpoint).unwrap();
        assert!(!j.due(), "a fresh base resets the threshold");
        cleanup(&path);
    }

    #[test]
    fn corrupt_primary_falls_back_to_backup() {
        let path = scratch("fallback");
        let mut j = StateJournal::new(&path);
        base(&mut j, &demo(2)).unwrap();
        base(&mut j, &demo(8)).unwrap();
        // Truncate the primary mid-frame, as a crash during a non-atomic
        // writer (or disk damage) would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let rec = recover(&path);
        assert!(rec.from_backup, "recovery must come from the .bak generation");
        assert_eq!(rec.checkpoint, demo(2), "one generation lost, crawl still resumable");
        cleanup(&path);
    }

    #[test]
    fn corrupt_primary_without_backup_reports_corruption() {
        let path = scratch("no-backup");
        base(&mut StateJournal::new(&path), &demo(2)).unwrap();
        // An intact frame whose checkpoint fails its own checksum.
        let mut log = FrameLog::create(&path).unwrap();
        log.append(b"DWC-CHECKPOINT v2 crc=0000000000000000\n").unwrap();
        let err = StateJournal::recover(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        cleanup(&path);
    }

    /// A kill at any point inside a compaction leaves files that recover
    /// the state being compacted — which is both the pre- and the
    /// post-compaction state — and never `None`.
    #[test]
    fn kill_inside_compaction_recovers_the_compacted_state() {
        let path = scratch("kill");
        let (tmp, bak) = (sibling(&path, ".tmp"), StateJournal::backup_path(&path));
        let mut j = StateJournal::new(&path);
        base(&mut j, &demo(0)).unwrap();
        j.append_delta(&queried_state(), 3, 1).unwrap();
        let state = recover(&path).checkpoint;
        let old = std::fs::read(&path).unwrap();
        base(&mut j, &state).unwrap();
        let new = std::fs::read(&path).unwrap();
        assert_eq!(std::fs::read(&bak).unwrap(), old, "the old log is rotated, not rewritten");

        let (old, new) = (Some(old.as_slice()), Some(new.as_slice()));
        let torn = new.map(|b| &b[..b.len() / 2]);
        // (kill point, primary, temporary, backup, recovered from backup)
        let kill_points = [
            ("temporary written, not renamed", old, new, None, false),
            ("primary rotated before the rename", None, new, old, true),
            ("torn base frame", torn, None, old, true),
            ("compaction complete", new, None, old, false),
        ];
        for (what, primary, temporary, backup, from_backup) in kill_points {
            for (file, bytes) in [(&path, primary), (&tmp, temporary), (&bak, backup)] {
                let _ = std::fs::remove_file(file);
                if let Some(bytes) = bytes {
                    std::fs::write(file, bytes).unwrap();
                }
            }
            let rec = StateJournal::recover(&path).unwrap();
            let rec = rec.unwrap_or_else(|| panic!("{what}: nothing recovered"));
            assert_eq!(rec.checkpoint, state, "{what}");
            assert_eq!(rec.from_backup, from_backup, "{what}");
        }
        cleanup(&path);
    }

    #[test]
    fn failed_compaction_keeps_the_live_journal() {
        let path = scratch("failed");
        let mut j = StateJournal::new(&path);
        base(&mut j, &demo(0)).unwrap();
        // A directory squatting on the temporary's name fails the write.
        std::fs::create_dir(sibling(&path, ".tmp")).unwrap();
        assert!(base(&mut j, &demo(5)).is_err());
        assert!(!j.due(), "a failed compaction is retried later, not on every query");
        j.append_delta(&queried_state(), 3, 1).unwrap();
        let rec = recover(&path);
        assert_eq!((rec.checkpoint.rounds, rec.deltas_applied), (3, 1), "appends continue");
        cleanup(&path);
    }

    #[test]
    fn non_file_journal_path_is_refused_and_left_in_place() {
        let path = scratch("dir");
        std::fs::create_dir(&path).unwrap();
        let mut j = StateJournal::new(&path);
        assert_eq!(base(&mut j, &demo(0)).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert!(!j.has_base());
        assert!(path.is_dir(), "a compaction never renames what is not a journal");
        assert!(!StateJournal::backup_path(&path).exists());
        cleanup(&path);
    }
}
