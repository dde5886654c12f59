//! The evolution changefeed: a bounded in-memory journal of committed
//! steward mutations, each stamped with its epoch and dependency footprint.
//!
//! This is the data behind `GET /changes?since=epoch` on `mdm-server` and
//! the CLI's `changes` command. It lives on [`crate::Mdm`] itself (not on
//! the durable store) so every role serves it: an in-memory primary, a
//! WAL-backed primary (recovery replays mutations through the public
//! mutators, repopulating the log), and a replica (stream replay does the
//! same). Epochs increase strictly, so a cursor — "give me everything after
//! epoch N" — observes each committed mutation exactly once.
//!
//! The log has a **horizon**: it holds a record of every epoch after it,
//! and may miss any epoch at or before it. The horizon starts at the epoch
//! the instance starts from — 0 for a new system, the snapshot's epoch for
//! a restored one (crash recovery, a replica's bootstrap) — rises with any
//! epoch jump ([`crate::Mdm::restore`], which the REPL's `restore` and
//! `POST /steward/restore` both call, and replay), and follows the oldest records
//! out when the bounded log overflows. [`ChangeLog::since`] reports
//! `truncated = true` for cursors below it, so consumers know to re-sync
//! instead of silently missing changes.

use std::collections::VecDeque;

use crate::footprint::Footprint;

/// Retained records; at one record per steward mutation this covers far
/// more history than any live cursor lags behind.
pub const DEFAULT_CHANGELOG_CAPACITY: usize = 4096;

/// One committed steward mutation, as the changefeed serves it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChangeRecord {
    /// The metadata epoch the mutation produced.
    pub epoch: u64,
    /// The op kind (`define_concept`, `define_mapping`, …).
    pub kind: &'static str,
    /// One-line human summary.
    pub summary: String,
    /// What the mutation touched (see [`Footprint`]).
    pub footprint: Footprint,
    /// True when overlapping cached plans are incrementally extendable
    /// over this mutation instead of fully invalidated.
    pub extension: bool,
}

/// Bounded, append-only change history.
#[derive(Debug, Default)]
pub struct ChangeLog {
    records: VecDeque<ChangeRecord>,
    /// The horizon: every epoch after it has its record here; those at or
    /// before it may have been dropped or never held (0 = the log holds
    /// every epoch). Cursors below it may have missed changes.
    horizon: u64,
    capacity: usize,
}

impl ChangeLog {
    /// An empty log holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> ChangeLog {
        ChangeLog {
            records: VecDeque::new(),
            horizon: 0,
            capacity: capacity.max(1),
        }
    }

    /// Appends one record; epochs must increase strictly.
    pub fn push(&mut self, record: ChangeRecord) {
        debug_assert!(
            self.records
                .back()
                .is_none_or(|last| last.epoch < record.epoch),
            "change log epochs must increase strictly"
        );
        self.records.push_back(record);
        while self.records.len() > self.capacity {
            if let Some(dropped) = self.records.pop_front() {
                self.horizon = self.horizon.max(dropped.epoch);
            }
        }
    }

    /// Moves the horizon up to `epoch`: the history through it is not
    /// held here (it is in a snapshot, or was never seen by this process).
    pub fn forget_through(&mut self, epoch: u64) {
        self.horizon = self.horizon.max(epoch);
    }

    /// Records with `epoch > since`, oldest first, at most `limit`. The
    /// boolean is true when `since` is below the horizon: epochs after the
    /// cursor have no record here (dropped on overflow, or before the
    /// epoch this log started from), and the cursor should re-sync. A
    /// cursor at the horizon gets every record after it.
    pub fn since(&self, since: u64, limit: usize) -> (Vec<ChangeRecord>, bool) {
        let truncated = since < self.horizon;
        let records = self
            .records
            .iter()
            .filter(|r| r.epoch > since)
            .take(limit)
            .cloned()
            .collect();
        (records, truncated)
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64) -> ChangeRecord {
        ChangeRecord {
            epoch,
            kind: "define_concept",
            summary: format!("concept C{epoch}"),
            footprint: Footprint::default(),
            extension: false,
        }
    }

    #[test]
    fn cursor_sees_each_record_exactly_once() {
        let mut log = ChangeLog::new(16);
        for epoch in 1..=6 {
            log.push(record(epoch));
        }
        let mut cursor = 0;
        let mut seen = Vec::new();
        loop {
            let (batch, truncated) = log.since(cursor, 2);
            assert!(!truncated);
            if batch.is_empty() {
                break;
            }
            cursor = batch.last().unwrap().epoch;
            seen.extend(batch.into_iter().map(|r| r.epoch));
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn overflow_truncates_and_flags_stale_cursors() {
        let mut log = ChangeLog::new(3);
        for epoch in 1..=5 {
            log.push(record(epoch));
        }
        assert_eq!(log.len(), 3);
        let (records, truncated) = log.since(0, 10);
        assert!(truncated, "cursor 0 predates the horizon");
        assert_eq!(records.first().unwrap().epoch, 3);
        let (_, truncated) = log.since(2, 10);
        assert!(!truncated, "cursor 2 saw everything dropped");
    }

    #[test]
    fn a_log_that_starts_late_flags_cursors_below_its_start() {
        let mut log = ChangeLog::new(2);
        log.push(record(1));
        log.forget_through(5);
        log.push(record(6));
        let (records, truncated) = log.since(3, 10);
        assert!(truncated, "epochs 4 and 5 have no record");
        assert_eq!(records.iter().map(|r| r.epoch).collect::<Vec<_>>(), [6]);
        assert_eq!(log.since(5, 10), (vec![record(6)], false));
        // Overflow drops epoch 1: the horizon stays at 5.
        log.push(record(7));
        assert!(log.since(4, 10).1);
        assert!(!log.since(5, 10).1);
    }
}
