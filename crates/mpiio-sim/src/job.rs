//! The MPI-IO-shaped programmatic API.
//!
//! An [`MpiJob`] is a recorded parallel program: `world_size` ranks issue
//! `read_at`/`write_at` calls against opened files; [`MpiJob::barrier`]
//! closes an I/O phase (everything issued since the previous barrier is
//! considered concurrent, as in a collective I/O call or a loosely
//! synchronized compute loop). `finish` yields the trace the middleware
//! profiles and replays.

use iotrace::record::{FileId, Rank};
use iotrace::{Trace, TraceRecord};
use simrt::{SimDuration, SimTime};
use std::collections::BTreeMap;
use storage_model::IoOp;

/// Handle to an open file within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHandle(FileId);

/// A recorded MPI job.
#[derive(Debug)]
pub struct MpiJob {
    world_size: u32,
    files: BTreeMap<String, FileId>,
    records: Vec<TraceRecord>,
    phase: u32,
    phase_dirty: bool,
    phase_gap: SimDuration,
}

impl MpiJob {
    /// A job with `world_size` ranks.
    ///
    /// # Panics
    /// If `world_size` is zero.
    pub fn new(world_size: u32) -> Self {
        assert!(world_size > 0, "MPI world needs at least one rank");
        MpiJob {
            world_size,
            files: BTreeMap::new(),
            records: Vec::new(),
            phase: 0,
            phase_dirty: false,
            phase_gap: SimDuration::from_millis(10),
        }
    }

    /// Number of ranks.
    pub(crate) fn world_size(&self) -> u32 {
        self.world_size
    }

    /// Open (or re-open) a named file; the same name returns the same
    /// handle, as `MPI_File_open` on the same path would.
    pub fn open(&mut self, name: &str) -> FileHandle {
        let next = self.files.len() as u32;
        FileHandle(*self.files.entry(name.to_string()).or_insert(FileId(next)))
    }

    /// Rank `rank` writes `len` bytes at `offset`.
    ///
    /// # Panics
    /// If `rank` is outside the world.
    pub fn write_at(&mut self, rank: u32, fh: FileHandle, offset: u64, len: u64) {
        self.record(rank, fh, IoOp::Write, offset, len);
    }

    /// Rank `rank` reads `len` bytes at `offset`.
    pub fn read_at(&mut self, rank: u32, fh: FileHandle, offset: u64, len: u64) {
        self.record(rank, fh, IoOp::Read, offset, len);
    }

    /// Close the current I/O phase (collective synchronization point).
    /// A barrier with no I/O since the last one is a no-op.
    pub fn barrier(&mut self) {
        if self.phase_dirty {
            self.phase += 1;
            self.phase_dirty = false;
        }
    }

    /// Finish the job, producing its trace.
    pub fn finish(self) -> Trace {
        Trace::from_records(self.records)
    }

    fn record(&mut self, rank: u32, fh: FileHandle, op: IoOp, offset: u64, len: u64) {
        assert!(rank < self.world_size, "rank {rank} outside world of {}", self.world_size);
        let ts = SimTime::ZERO + self.phase_gap * u64::from(self.phase);
        self.records.push(TraceRecord {
            pid: 7000 + rank,
            rank: Rank(rank),
            file: fh.0,
            op,
            offset,
            len,
            ts,
            phase: self.phase,
        });
        self.phase_dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_is_idempotent_per_name() {
        let mut j = MpiJob::new(4);
        let a = j.open("data.bin");
        let b = j.open("data.bin");
        let c = j.open("other.bin");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn barriers_separate_phases() {
        let mut j = MpiJob::new(2);
        let f = j.open("f");
        j.write_at(0, f, 0, 100);
        j.write_at(1, f, 100, 100);
        j.barrier();
        j.write_at(0, f, 200, 100);
        let t = j.finish();
        assert_eq!(t.phase_span(), 2);
        assert_eq!(t.concurrency(), vec![2, 2, 1]);
    }

    #[test]
    fn empty_barriers_collapse() {
        let mut j = MpiJob::new(1);
        let f = j.open("f");
        j.barrier();
        j.barrier();
        j.write_at(0, f, 0, 10);
        j.barrier();
        j.barrier();
        j.read_at(0, f, 0, 10);
        let t = j.finish();
        assert_eq!(t.phase_span(), 2);
    }

    #[test]
    fn timestamps_grow_with_phases() {
        let mut j = MpiJob::new(1);
        let f = j.open("f");
        j.write_at(0, f, 0, 1);
        j.barrier();
        j.write_at(0, f, 1, 1);
        let t = j.finish();
        assert!(t.records().get(1).unwrap().ts > t.records().get(0).unwrap().ts);
    }

    #[test]
    #[should_panic(expected = "outside world")]
    fn out_of_world_rank_panics() {
        let mut j = MpiJob::new(2);
        let f = j.open("f");
        j.write_at(2, f, 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_world_rejected() {
        MpiJob::new(0);
    }
}
