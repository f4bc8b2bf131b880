//! # kvstore — embedded durable key-value store
//!
//! The paper implements MHA's two metadata tables — the Data Reordering
//! Table (DRT) and the Region Stripe Table (RST) — on Berkeley DB,
//! configured as a hash table of key-value records, with in-memory hashing
//! of hot entries and synchronous write-through so the tables survive
//! power failures (§IV-A). This crate is the from-scratch substitute:
//!
//! * a write-ahead log (WAL) with per-record CRC32, synced on every
//!   mutation (write-through durability),
//! * an ordered in-memory index over the log that holds each live key
//!   once, so tables sharing the store load by prefix range,
//! * an exact LRU value cache on an intrusive list (the paper's "list of
//!   frequently accessed reordering entries"). It fills on reads only:
//!   a put writes its value to the log and caches nothing (write-around),
//!   cold values are re-read from the log with one positioned read, and
//!   prefix scans read through without filling it,
//! * crash recovery that streams the log through a fixed 64 KiB window,
//!   keeping only live keys and their value offsets, and truncates a torn
//!   tail, so its memory grows with live keys rather than log length,
//! * compaction that rewrites the log with only live records.
//!
//! Written values therefore stay on disk until something reads them, as
//! in the paper, where only the hot entries are held in memory.
//!
//! It uses no external crates. Concurrency: the store is `Sync`; a single
//! [`std::sync::Mutex`] serializes operations, mirroring the page-level
//! locking Berkeley DB would provide for this workload.

pub mod codec;
pub mod error;
pub mod store;
pub mod wal;

pub use error::{Error, Result};
pub use store::{Store, StoreOptions};
