//! Crash-consistent persistence for the planning pipeline.
//!
//! The paper's five-phase flow spans multiple application runs: the DRT
//! and RST computed after run *n* must still be there — and still be
//! *right* — when run *n + 1* opens the file system. This module turns
//! the `kvstore` crate (WAL + CRC32 + atomic compaction, the Berkeley DB
//! substitute) into a durability layer with three guarantees:
//!
//! 1. **Versioned, checksummed records.** Every value is wrapped in an
//!    envelope `[magic "MH"][tag][version][crc32(payload)][payload]`.
//!    The WAL already checksums whole records; the envelope additionally
//!    rejects cross-table mixups, format drift and any corruption that
//!    survives the log layer, with structured [`PersistError`]s instead
//!    of panics or silently wrong tables.
//! 2. **Atomic generations.** A save writes every DRT/RST/plan record
//!    under a fresh generation prefix and only then appends a single
//!    *commit record* naming that generation and its exact entry counts.
//!    Readers resolve the commit record first; a crash anywhere before
//!    it leaves the previous committed generation untouched, and a
//!    commit record whose counts don't match the surviving entries is
//!    rejected as corrupt (this closes the WAL-tail-drop hole where a
//!    mid-log flip silently truncates everything after it).
//!
//!    The DRT is written as *chunk records* of at most 4096
//!    (`DRT_CHUNK_ENTRIES`) entries each, in `(file, offset)` order, keyed
//!    by generation and chunk index. Each entry is 32 bytes: `o_file`
//!    (u32), `o_offset` (u64), `r_file` (u32), `r_offset` (u64) and
//!    `length` (u64), all little-endian — the migration journal's entry
//!    encoding. Every chunk but the last is full, so `n` entries take
//!    exactly `⌈n / 4096⌉` chunk records. A load first counts the chunk
//!    keys and rejects, as corrupt, a commit record whose entry count
//!    they cannot hold in that shape; it then reserves the table once,
//!    for that count, reads the chunks in key order,
//!    appends their entries straight into the flat [`Drt`]
//!    and rejects, as corrupt, a payload that is not 1 to 4096 whole
//!    entries and an entry that is zero-length, out of order or
//!    overlapping — so a reordered or duplicated chunk fails — and the
//!    commit record's entry count then catches a missing one. RST
//!    records stay one record per row.
//!
//!    Plan metadata (one record per generation) is a little-endian
//!    binary payload too, laid out in the meta payload section below; a
//!    malformed one is
//!    [`PersistError::Corrupt`], never a panic or an oversized
//!    allocation.
//! 3. **Write-ahead migration journal.** Region migration writes its
//!    intended DRT entries to the journal *before* moving bytes, and a
//!    per-batch commit record *after* the movement traffic has been
//!    replayed. Every entry is its own batch: one *intent record* keyed
//!    by its first batch holds a whole call's entries in the DRT-chunk
//!    encoding, entry `i` owning batch `first + i`, while commit records
//!    stay one per batch. A DRT entry is only published once its batch
//!    committed, so [`recover`] can roll committed batches forward and
//!    discard uncommitted intents — the DRT never resolves to data that
//!    was never migrated. An intent record that is empty, not whole
//!    entries, holds a zero-length or `u64`-overflowing entry, numbers a
//!    batch past `u32::MAX` or claims a batch another record claims is
//!    [`PersistError::Corrupt`].
//!
//! Crash injection is first-class: every mutating operation crosses
//! numbered *commit boundaries* through a [`KillSwitch`]. Arming the
//! switch at boundary `k` makes the `k`-th store write fail with
//! [`PersistError::Killed`] before it happens — simulated process death
//! with everything earlier already in the log — which lets tests sweep a
//! deterministic kill-point matrix across the whole pipeline.

use crate::region::{Drt, DrtEntry, RegionInfo, Rst};
use crate::rssd::StripePair;
use crate::schemes::{Plan, PlanResolver, Scheme};
use iotrace::{FileId, TenantId};
use kvstore::codec::crc32;
use kvstore::{Store, StoreOptions};
use pfs_sim::{LayoutSpec, Placement, ServerId};
use std::cell::Cell;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// On-disk format version of every record this module writes.
const VERSION: u8 = 4;

/// Most DRT entries one chunk record holds.
const DRT_CHUNK_ENTRIES: usize = 4096;

/// Bytes of one encoded DRT entry (see [`entry_bytes`]).
const ENTRY_BYTES: usize = 32;

/// Record tags: what kind of payload an envelope carries.
const TAG_DRT: u8 = b'D';
const TAG_RST: u8 = b'R';
const TAG_META: u8 = b'P';
const TAG_JOURNAL: u8 = b'J';
const TAG_COMMIT: u8 = b'C';

/// The single key naming the committed generation.
const COMMIT_KEY: &[u8] = b"pcommit";

// ------------------------------------------------------------- errors --

/// Why a pipeline persistence operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying kvstore failed (I/O, log-level corruption, ...).
    Store(kvstore::Error),
    /// A record exists but its envelope or payload is damaged.
    Corrupt {
        /// Human-readable rendering of the offending key.
        key: String,
        /// What exactly was wrong.
        reason: String,
    },
    /// A record was written by an incompatible format version.
    VersionMismatch {
        /// Human-readable rendering of the offending key.
        key: String,
        /// Version found on disk.
        found: u8,
        /// Version this build writes and reads.
        expected: u8,
    },
    /// The committed generation references a record that is gone.
    Missing {
        /// Human-readable rendering of the absent key.
        key: String,
    },
    /// Simulated process death injected by an armed [`KillSwitch`].
    Killed(CommitPoint),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Store(e) => write!(f, "pipeline store: {e}"),
            PersistError::Corrupt { key, reason } => {
                write!(f, "pipeline record {key} is corrupt: {reason}")
            }
            PersistError::VersionMismatch { key, found, expected } => {
                write!(f, "pipeline record {key}: version {found}, expected {expected}")
            }
            PersistError::Missing { key } => write!(f, "pipeline record {key} is missing"),
            PersistError::Killed(p) => write!(f, "simulated crash at commit boundary {p:?}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<kvstore::Error> for PersistError {
    fn from(e: kvstore::Error) -> Self {
        PersistError::Store(e)
    }
}

/// Render a (partially binary) store key for error messages.
fn key_name(k: &[u8]) -> String {
    let mut s = String::with_capacity(k.len() * 2);
    for &b in k {
        if (0x20..0x7f).contains(&b) {
            s.push(b as char);
        } else {
            let _ = write!(s, "\\x{b:02x}");
        }
    }
    s
}

fn corrupt(key: &[u8], reason: impl Into<String>) -> PersistError {
    PersistError::Corrupt { key: key_name(key), reason: reason.into() }
}

// -------------------------------------------------------- kill switch --

/// The commit boundaries a crash can be injected at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPoint {
    /// Before writing one DRT/RST/plan record of an uncommitted
    /// generation.
    TableEntry,
    /// Before writing a generation's commit record — the atomic instant
    /// a save becomes visible.
    TableCommit,
    /// Before writing one migration intent record (all the batches of
    /// one journaling call).
    BatchIntent,
    /// Before writing a migration batch's commit record — the atomic
    /// instant a batch's movement becomes rollable-forward.
    BatchCommit,
    /// Before clearing the migration journal after publication.
    JournalClear,
}

/// Deterministic crash injector.
///
/// Every mutating [`PipelineStore`] operation calls `KillSwitch::check`
/// immediately *before* each store write; the switch counts these
/// crossings globally. Arming it at index `k` makes crossing `k` return
/// [`PersistError::Killed`] — the write does not happen, everything
/// earlier is already in the log, exactly the state a process killed
/// between two appends leaves behind. Disarmed, the switch only counts,
/// so a recording run measures how many boundaries a flow crosses.
#[derive(Debug, Default)]
pub struct KillSwitch {
    armed: Cell<Option<u64>>,
    crossed: Cell<u64>,
}

impl KillSwitch {
    /// A disarmed switch.
    pub(crate) fn new() -> Self {
        KillSwitch::default()
    }

    /// Die at global boundary `index` (0-based).
    pub fn arm(&self, index: u64) {
        self.armed.set(Some(index));
    }

    /// Stop injecting.
    pub fn disarm(&self) {
        self.armed.set(None);
    }

    /// Boundaries crossed so far (the matrix width of a recording run).
    pub fn boundaries(&self) -> u64 {
        self.crossed.get()
    }

    /// Reset the crossing counter (keeps the armed index).
    pub fn reset(&self) {
        self.crossed.set(0);
    }

    fn check(&self, point: CommitPoint) -> Result<(), PersistError> {
        let i = self.crossed.get();
        self.crossed.set(i + 1);
        if self.armed.get() == Some(i) {
            return Err(PersistError::Killed(point));
        }
        Ok(())
    }
}

// ----------------------------------------------------------- envelope --

/// Wrap `payload` in the versioned, checksummed on-disk envelope.
fn seal(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + payload.len());
    v.push(b'M');
    v.push(b'H');
    v.push(tag);
    v.push(VERSION);
    v.extend_from_slice(&crc32(payload).to_le_bytes());
    v.extend_from_slice(payload);
    v
}

/// Validate an envelope read back for `key` and return its payload.
fn unseal<'a>(key: &[u8], tag: u8, raw: &'a [u8]) -> Result<&'a [u8], PersistError> {
    if raw.len() < 8 {
        return Err(corrupt(key, format!("envelope is {} bytes, header needs 8", raw.len())));
    }
    if raw[0] != b'M' || raw[1] != b'H' {
        return Err(corrupt(key, "bad envelope magic"));
    }
    if raw[2] != tag {
        return Err(corrupt(key, format!("tag {:?}, expected {:?}", raw[2] as char, tag as char)));
    }
    if raw[3] != VERSION {
        return Err(PersistError::VersionMismatch {
            key: key_name(key),
            found: raw[3],
            expected: VERSION,
        });
    }
    let crc = u32::from_le_bytes(raw[4..8].try_into().expect("4 bytes"));
    let payload = &raw[8..];
    if crc32(payload) != crc {
        return Err(corrupt(key, "payload CRC mismatch"));
    }
    Ok(payload)
}

fn le_u32(b: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(..4)?.try_into().ok()?))
}

fn le_u64(b: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(..8)?.try_into().ok()?))
}

// ------------------------------------------------------ payload codec --
//
// Every payload is little-endian integers written with the `put_*`
// helpers and read back through a `Reader`, whose every failure is
// `Corrupt` for the record's key.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over one payload. Every failure
/// is [`PersistError::Corrupt`] against `key`.
struct Reader<'a> {
    key: &'a [u8],
    rest: &'a [u8],
}

impl Reader<'_> {
    fn bad(&self, reason: impl Into<String>) -> PersistError {
        corrupt(self.key, reason)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let Some((head, tail)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.bad(format!(
                "payload ends {} bytes into a {N}-byte field",
                self.rest.len()
            )));
        };
        self.rest = tail;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.bad(format!("{v} does not fit a usize")))
    }

    /// An element count, rejected unless that many elements of at least
    /// `min_bytes` each fit in what remains: a forged count never
    /// reserves memory past the payload.
    fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize, PersistError> {
        let n = self.u64()?;
        let room = self.rest.len() / min_bytes;
        if n > room as u64 {
            return Err(self.bad(format!(
                "{n} {what} cannot fit in the {} bytes that remain",
                self.rest.len()
            )));
        }
        Ok(n as usize)
    }

    fn finish(self) -> Result<(), PersistError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(self.bad(format!("{} trailing bytes", self.rest.len())))
        }
    }
}

// ---------------------------------------------------------------- keys --
//
// Every pipeline key optionally carries a tenant namespace prefix
// `t<ns-le32>:`. Namespace 0 (the legacy / single-tenant namespace)
// writes the pre-tenancy key bytes verbatim, so stores written before
// tenancy existed keep loading unchanged, and a tenant-0 store stays
// byte-identical to a legacy one. No legacy key starts with `t`, so the
// namespaces can never collide with the flat key space.

fn ns_prefix(ns: u32) -> Vec<u8> {
    if ns == 0 {
        return Vec::new();
    }
    let mut k = Vec::with_capacity(6);
    k.push(b't');
    k.extend_from_slice(&ns.to_le_bytes());
    k.push(b':');
    k
}

fn commit_key(ns: u32) -> Vec<u8> {
    let mut k = ns_prefix(ns);
    k.extend_from_slice(COMMIT_KEY);
    k
}

fn drt_gen_prefix(ns: u32, gen: u64) -> Vec<u8> {
    let mut k = ns_prefix(ns);
    k.extend_from_slice(b"pdrt:");
    k.extend_from_slice(&gen.to_le_bytes());
    k.push(b':');
    k
}

/// Key of DRT chunk `chunk` of generation `gen`. The chunk index is
/// big-endian, so key order is chunk order.
fn drt_chunk_key(ns: u32, gen: u64, chunk: u32) -> Vec<u8> {
    let mut k = drt_gen_prefix(ns, gen);
    k.extend_from_slice(&chunk.to_be_bytes());
    k
}

fn rst_gen_prefix(ns: u32, gen: u64) -> Vec<u8> {
    let mut k = ns_prefix(ns);
    k.extend_from_slice(b"prst:");
    k.extend_from_slice(&gen.to_le_bytes());
    k.push(b':');
    k
}

fn rst_entry_key(ns: u32, gen: u64, file: FileId) -> Vec<u8> {
    let mut k = rst_gen_prefix(ns, gen);
    k.extend_from_slice(&file.0.to_le_bytes());
    k
}

fn meta_key(ns: u32, gen: u64) -> Vec<u8> {
    let mut k = ns_prefix(ns);
    k.extend_from_slice(b"pmeta:");
    k.extend_from_slice(&gen.to_le_bytes());
    k
}

fn table_prefix(ns: u32, table: &[u8]) -> Vec<u8> {
    let mut k = ns_prefix(ns);
    k.extend_from_slice(table);
    k
}

/// Key of the intent record whose first entry owns batch `first`.
fn journal_key(ns: u32, first: u32) -> Vec<u8> {
    let mut k = ns_prefix(ns);
    k.extend_from_slice(b"mig:");
    k.extend_from_slice(&first.to_le_bytes());
    k
}

fn journal_commit_key(ns: u32, batch: u32) -> Vec<u8> {
    let mut k = ns_prefix(ns);
    k.extend_from_slice(b"migc:");
    k.extend_from_slice(&batch.to_le_bytes());
    k
}

/// One DRT entry as 32 bytes, little-endian fields: the unit of a DRT
/// chunk and of a journal intent record.
fn entry_bytes(e: &DrtEntry) -> [u8; ENTRY_BYTES] {
    let mut b = [0u8; ENTRY_BYTES];
    b[..4].copy_from_slice(&e.o_file.0.to_le_bytes());
    b[4..12].copy_from_slice(&e.o_offset.to_le_bytes());
    b[12..16].copy_from_slice(&e.r_file.0.to_le_bytes());
    b[16..24].copy_from_slice(&e.r_offset.to_le_bytes());
    b[24..32].copy_from_slice(&e.length.to_le_bytes());
    b
}

fn entry_from_bytes(key: &[u8], v: &[u8]) -> Result<DrtEntry, PersistError> {
    let mut r = Reader { key, rest: v };
    let e = DrtEntry {
        o_file: FileId(r.u32()?),
        o_offset: r.u64()?,
        r_file: FileId(r.u32()?),
        r_offset: r.u64()?,
        length: r.u64()?,
    };
    r.finish()?;
    Ok(e)
}

/// Why `e` cannot be a journaled intent, if it cannot: an intent maps at
/// least one byte and ends within `u64` on both sides.
fn bad_intent(e: &DrtEntry) -> Option<&'static str> {
    if e.length == 0 {
        Some("zero-length entry")
    } else if e.o_offset.checked_add(e.length).is_none()
        || e.r_offset.checked_add(e.length).is_none()
    {
        Some("entry ends past u64::MAX")
    } else {
        None
    }
}

/// One RST row's stripe pair as 16 bytes: `h` then `s`, little-endian.
fn pair_bytes(pair: StripePair) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&pair.h.to_le_bytes());
    b[8..].copy_from_slice(&pair.s.to_le_bytes());
    b
}

fn pair_from_bytes(key: &[u8], v: &[u8]) -> Result<StripePair, PersistError> {
    let mut r = Reader { key, rest: v };
    let pair = StripePair { h: r.u64()?, s: r.u64()? };
    r.finish()?;
    Ok(pair)
}

// ------------------------------------------------------ meta payload --
//
// Plan metadata, in order:
//   scheme u8 (0 DEF, 1 AAL, 2 HARL, 3 MHA)
//   layout count u64, then per layout:
//     file u32, segment count u64, per segment server u64 and stripe u64,
//     placement u8 (0 striped, 1 replicated + k u64, 2 EC + k u64 + m u64)
//   region count u64, then per region: file u32, len u64, group u64,
//     extents u64
//   has_drt u8 (0 or 1)
// Segment starts, the round size and its cached reciprocal are derived
// and not stored.
//
// All integers are little-endian. Nothing follows the last field.

/// Encoded bytes of the smallest layout: file, segment count, one
/// segment and the striped placement tag.
const MIN_LAYOUT_BYTES: usize = 4 + 8 + 16 + 1;
/// Encoded bytes of one segment: server and stripe.
const SEGMENT_BYTES: usize = 16;
/// Encoded bytes of one region: file, len, group and extents.
const REGION_BYTES: usize = 4 + 3 * 8;
fn encode_meta(plan: &Plan) -> Vec<u8> {
    let mut out = vec![match plan.scheme {
        Scheme::Def => 0,
        Scheme::Aal => 1,
        Scheme::Harl => 2,
        Scheme::Mha => 3,
    }];
    put_u64(&mut out, plan.layouts.len() as u64);
    for (file, layout) in &plan.layouts {
        put_u32(&mut out, file.0);
        put_u64(&mut out, layout.segment_count() as u64);
        for (server, stripe) in layout.assignments() {
            put_u64(&mut out, server.0 as u64);
            put_u64(&mut out, stripe);
        }
        match layout.placement() {
            Placement::Striped => out.push(0),
            Placement::Replicated(k) => {
                out.push(1);
                put_u64(&mut out, k as u64);
            }
            Placement::ErasureCoded(k, m) => {
                out.push(2);
                put_u64(&mut out, k as u64);
                put_u64(&mut out, m as u64);
            }
        }
    }
    put_u64(&mut out, plan.regions.len() as u64);
    for r in &plan.regions {
        put_u32(&mut out, r.file.0);
        put_u64(&mut out, r.len);
        put_u64(&mut out, r.group as u64);
        put_u64(&mut out, r.extents as u64);
    }
    out.push(u8::from(matches!(plan.resolver, PlanResolver::Drt(_))));
    out
}

/// The plan whose metadata `payload` holds, around its tables, which
/// have their own records (DRT chunks and per-row RST records).
fn decode_plan(key: &[u8], payload: &[u8], drt: Drt, rst: Rst) -> Result<Plan, PersistError> {
    let mut r = Reader { key, rest: payload };
    let scheme = match r.u8()? {
        0 => Scheme::Def,
        1 => Scheme::Aal,
        2 => Scheme::Harl,
        3 => Scheme::Mha,
        t => return Err(r.bad(format!("unknown scheme tag {t}"))),
    };
    let n = r.count(MIN_LAYOUT_BYTES, "layouts")?;
    let mut layouts = Vec::with_capacity(n);
    for _ in 0..n {
        let file = FileId(r.u32()?);
        layouts.push((file, decode_layout(&mut r)?));
    }
    let n = r.count(REGION_BYTES, "regions")?;
    let mut regions = Vec::with_capacity(n);
    for _ in 0..n {
        regions.push(RegionInfo {
            file: FileId(r.u32()?),
            len: r.u64()?,
            group: r.usize()?,
            extents: r.usize()?,
        });
    }
    let has_drt = match r.u8()? {
        0 => false,
        1 => true,
        b => return Err(r.bad(format!("has_drt flag is {b}, not 0 or 1"))),
    };
    r.finish()?;
    let resolver = if has_drt { PlanResolver::Drt(drt) } else { PlanResolver::Identity };
    Ok(Plan { scheme, layouts, resolver, rst, regions })
}

/// One layout, rebuilt through [`LayoutSpec::from_assignments`] and
/// [`LayoutSpec::try_with_placement`] after the checks that keep both
/// from panicking.
fn decode_layout(r: &mut Reader) -> Result<LayoutSpec, PersistError> {
    let n = r.count(SEGMENT_BYTES, "segments")?;
    if n == 0 {
        return Err(r.bad("layout has no segments"));
    }
    let mut assigns = Vec::with_capacity(n);
    let mut round = 0u64;
    for _ in 0..n {
        let server = ServerId(r.usize()?);
        let stripe = r.u64()?;
        if stripe == 0 {
            return Err(r.bad("layout has a zero stripe"));
        }
        round = round
            .checked_add(stripe)
            .ok_or_else(|| r.bad("layout stripes sum past u64::MAX"))?;
        assigns.push((server, stripe));
    }
    let placement = match r.u8()? {
        0 => Placement::Striped,
        1 => Placement::Replicated(r.usize()?),
        2 => Placement::ErasureCoded(r.usize()?, r.usize()?),
        t => return Err(r.bad(format!("unknown placement tag {t}"))),
    };
    LayoutSpec::from_assignments(assigns)
        .try_with_placement(placement)
        .map_err(|why| r.bad(why))
}

// ------------------------------------------------------ pipeline store --

/// The committed-generation record.
struct Committed {
    gen: u64,
    drt_count: u64,
    rst_count: u64,
    has_meta: bool,
}

/// One journaled migration batch, as read back by [`TenantStore::journal`].
#[derive(Debug, Clone, Copy)]
pub struct JournalBatch {
    /// Batch index within the interrupted migration.
    pub batch: u32,
    /// Whether the batch's commit record exists (movement completed).
    pub committed: bool,
    /// The DRT entry the batch intended to publish.
    pub entry: DrtEntry,
}

/// Crash-consistent store for the pipeline's durable state: DRT, RST,
/// planner outputs and the migration journal.
///
/// All writes go through a single kvstore WAL, so intra-file ordering is
/// physical: a commit record can only survive a crash if everything
/// written before it survived too (the store truncates torn tails on
/// open). Saves are therefore atomic at the commit record, and the
/// journal's intent→move→commit discipline gives migration its
/// write-ahead invariant.
///
/// Tables, plans and the journal live in per-tenant namespaces reached
/// through [`PipelineStore::tenant`]; tenant 0 is the single-tenant
/// pipeline's namespace.
pub struct PipelineStore {
    store: Store,
    kill: KillSwitch,
}

impl PipelineStore {
    /// Open (or create) the pipeline store at `path`, recovering the log
    /// (torn tails are truncated by the kvstore layer).
    ///
    /// Writes are buffered; every commit record is followed by an
    /// explicit fsync, which is the only durability point the
    /// crash-consistency argument relies on.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let store =
            Store::open(path, StoreOptions { sync_on_write: false, ..StoreOptions::default() })?;
        Ok(PipelineStore { store, kill: KillSwitch::new() })
    }

    /// The crash injector for this store (disarmed by default).
    pub fn kill_switch(&self) -> &KillSwitch {
        &self.kill
    }

    /// The underlying kvstore, for diagnostics and tests.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The view of `tenant`'s namespace within this store.
    pub fn tenant(&self, tenant: TenantId) -> TenantStore<'_> {
        TenantStore { store: self, ns: tenant.0 }
    }

    /// `TenantStore::save_tables` for tenant 0.
    pub fn save_tables(&self, drt: &Drt, rst: &Rst) -> Result<u64, PersistError> {
        self.tenant(TenantId(0)).save_tables(drt, rst)
    }

    /// [`TenantStore::load_tables`] for tenant 0.
    pub fn load_tables(&self) -> Result<Option<(Drt, Rst)>, PersistError> {
        self.tenant(TenantId(0)).load_tables()
    }
}

// ------------------------------------------------------- tenant views --

/// One tenant's namespace of a shared [`PipelineStore`]: its table
/// generations, its committed plan and its migration journal, every key
/// under the tenant's prefix (none for tenant 0).
///
/// Obtained from [`PipelineStore::tenant`]; the borrow keeps every
/// tenant view on the same WAL, so cross-tenant write ordering is still
/// physical and one fsync covers all tenants.
#[derive(Clone, Copy)]
pub struct TenantStore<'a> {
    store: &'a PipelineStore,
    ns: u32,
}

impl TenantStore<'_> {
    fn kv(&self) -> &Store {
        &self.store.store
    }

    fn check(&self, point: CommitPoint) -> Result<(), PersistError> {
        self.store.kill.check(point)
    }

    // ------------------------------------------------------ generations --

    fn committed(&self) -> Result<Option<Committed>, PersistError> {
        let ck = commit_key(self.ns);
        let Some(raw) = self.kv().get(&ck)? else { return Ok(None) };
        let mut r = Reader { key: &ck, rest: unseal(&ck, TAG_COMMIT, &raw)? };
        let c = Committed {
            gen: r.u64()?,
            drt_count: r.u64()?,
            rst_count: r.u64()?,
            has_meta: r.u8()? != 0,
        };
        r.finish()?;
        Ok(Some(c))
    }

    /// Generation the commit record points at, if any save ever committed.
    pub fn committed_generation(&self) -> Result<Option<u64>, PersistError> {
        Ok(self.committed()?.map(|c| c.gen))
    }

    /// First generation index with no records at all: past the committed
    /// generation *and* past any half-written generation a crash left
    /// behind, so a new save never mixes records with a dead one.
    fn next_generation(&self) -> Result<u64, PersistError> {
        let mut max = self.committed()?.map(|c| c.gen);
        for table in [&b"pdrt:"[..], b"prst:", b"pmeta:"] {
            let prefix = table_prefix(self.ns, table);
            self.kv().scan_keys(&prefix, |key| {
                if let Some(g) = le_u64(&key[prefix.len()..]) {
                    max = Some(max.map_or(g, |m: u64| m.max(g)));
                }
            });
        }
        Ok(max.map_or(0, |g| g + 1))
    }

    fn save_generation(
        &self,
        drt: &Drt,
        rst: &Rst,
        meta: Option<&[u8]>,
    ) -> Result<u64, PersistError> {
        let ns = self.ns;
        let gen = self.next_generation()?;
        let mut entries = drt.iter();
        let mut payload = Vec::with_capacity(DRT_CHUNK_ENTRIES.min(drt.len()) * ENTRY_BYTES);
        for chunk in 0u32.. {
            payload.clear();
            for e in entries.by_ref().take(DRT_CHUNK_ENTRIES) {
                payload.extend_from_slice(&entry_bytes(&e));
            }
            if payload.is_empty() {
                break;
            }
            self.check(CommitPoint::TableEntry)?;
            self.kv().put(&drt_chunk_key(ns, gen, chunk), &seal(TAG_DRT, &payload))?;
        }
        for (file, pair) in rst.iter() {
            self.check(CommitPoint::TableEntry)?;
            self.kv().put(&rst_entry_key(ns, gen, file), &seal(TAG_RST, &pair_bytes(pair)))?;
        }
        if let Some(meta) = meta {
            self.check(CommitPoint::TableEntry)?;
            self.kv().put(&meta_key(ns, gen), &seal(TAG_META, meta))?;
        }
        self.check(CommitPoint::TableCommit)?;
        let mut payload = Vec::with_capacity(25);
        put_u64(&mut payload, gen);
        put_u64(&mut payload, drt.len() as u64);
        put_u64(&mut payload, rst.len() as u64);
        payload.push(u8::from(meta.is_some()));
        self.kv().put(&commit_key(ns), &seal(TAG_COMMIT, &payload))?;
        self.kv().sync()?;
        Ok(gen)
    }

    /// Atomically commit a new generation holding `drt` and `rst`.
    /// Returns the committed generation index. A crash at any point
    /// before the commit record leaves the previous generation intact.
    pub(crate) fn save_tables(&self, drt: &Drt, rst: &Rst) -> Result<u64, PersistError> {
        self.save_generation(drt, rst, None)
    }

    /// Atomically commit a new generation holding a whole planner output:
    /// its tables plus scheme, layouts and region descriptors.
    pub fn save_plan(&self, plan: &Plan) -> Result<u64, PersistError> {
        let empty = Drt::new();
        let drt = match &plan.resolver {
            PlanResolver::Drt(d) => d,
            PlanResolver::Identity => &empty,
        };
        self.save_generation(drt, &plan.rst, Some(&encode_meta(plan)))
    }

    /// Load the committed generation's tables, verifying every envelope
    /// and the committed entry counts. `Ok(None)` when nothing has ever
    /// committed; a structured error when anything on disk is damaged.
    pub fn load_tables(&self) -> Result<Option<(Drt, Rst)>, PersistError> {
        let Some(c) = self.committed()? else { return Ok(None) };
        Ok(Some(self.tables_at(&c)?))
    }

    fn tables_at(&self, c: &Committed) -> Result<(Drt, Rst), PersistError> {
        let mut drt = Drt::new();
        let dp = drt_gen_prefix(self.ns, c.gen);
        // The entry count is checksummed but not trusted: check it against
        // the chunk records present before loading any of them.
        let mut chunks = 0usize;
        self.kv().scan_keys(&dp, |_| chunks += 1);
        if !usize::try_from(c.drt_count)
            .is_ok_and(|count| count.div_ceil(DRT_CHUNK_ENTRIES) == chunks)
        {
            return Err(corrupt(
                &commit_key(self.ns),
                format!(
                    "{chunks} DRT chunk records on disk, commit record expects {} entries",
                    c.drt_count
                ),
            ));
        }
        let mut n = 0u64;
        self.kv().scan_prefix(&dp, |key, raw| {
            if key.len() != dp.len() + 4 {
                return Err(corrupt(key, "malformed DRT chunk key"));
            }
            let payload = unseal(key, TAG_DRT, raw)?;
            if payload.is_empty()
                || payload.len() % ENTRY_BYTES != 0
                || payload.len() > DRT_CHUNK_ENTRIES * ENTRY_BYTES
            {
                return Err(corrupt(
                    key,
                    format!(
                        "DRT chunk payload is {} bytes, not 1 to {DRT_CHUNK_ENTRIES} whole {ENTRY_BYTES}-byte entries",
                        payload.len()
                    ),
                ));
            }
            for bytes in payload.chunks_exact(ENTRY_BYTES) {
                drt.push_sorted(entry_from_bytes(key, bytes)?)
                    .map_err(|why| corrupt(key, format!("DRT entry {n}: {why}")))?;
                n += 1;
            }
            Ok(())
        })?;
        if n != c.drt_count {
            return Err(corrupt(
                &commit_key(self.ns),
                format!("{} DRT entries on disk, commit record expects {}", n, c.drt_count),
            ));
        }
        drt.shrink_to_fit();
        let mut rst = Rst::new();
        let rp = rst_gen_prefix(self.ns, c.gen);
        let mut m = 0u64;
        self.kv().scan_prefix(&rp, |key, raw| {
            let rest = &key[rp.len()..];
            if rest.len() != 4 {
                return Err(corrupt(key, "malformed RST entry key"));
            }
            let file = FileId(le_u32(rest).expect("4 bytes"));
            rst.set(file, pair_from_bytes(key, unseal(key, TAG_RST, raw)?)?);
            m += 1;
            Ok(())
        })?;
        if m != c.rst_count {
            return Err(corrupt(
                &commit_key(self.ns),
                format!("{} RST entries on disk, commit record expects {}", m, c.rst_count),
            ));
        }
        Ok((drt, rst))
    }

    /// Load the committed plan, if the committed generation was written
    /// by [`TenantStore::save_plan`] (table-only generations return
    /// `Ok(None)`).
    pub fn load_plan(&self) -> Result<Option<Plan>, PersistError> {
        let Some(c) = self.committed()? else { return Ok(None) };
        if !c.has_meta {
            return Ok(None);
        }
        let (drt, rst) = self.tables_at(&c)?;
        let (mk, payload) = self.meta_at(c.gen)?;
        Ok(Some(decode_plan(&mk, &payload, drt, rst)?))
    }

    /// Key and envelope-validated payload of generation `gen`'s plan
    /// metadata.
    fn meta_at(&self, gen: u64) -> Result<(Vec<u8>, Vec<u8>), PersistError> {
        let mk = meta_key(self.ns, gen);
        let raw = self.kv().get(&mk)?.ok_or_else(|| PersistError::Missing { key: key_name(&mk) })?;
        let payload = unseal(&mk, TAG_META, &raw)?.to_vec();
        Ok((mk, payload))
    }

    /// Drop every record of non-committed generations and compact the
    /// log (old generations, dead journal tombstones, superseded puts).
    pub fn gc(&self) -> Result<(), PersistError> {
        let committed = self.committed_generation()?;
        for table in [&b"pdrt:"[..], b"prst:", b"pmeta:"] {
            let prefix = table_prefix(self.ns, table);
            for key in self.kv().keys_with_prefix(&prefix) {
                if le_u64(&key[prefix.len()..]) != committed {
                    self.kv().delete(&key)?;
                }
            }
        }
        self.kv().compact()?;
        Ok(())
    }

    // ---------------------------------------------------------- journal --

    /// Journal one call's intended DRT entries *before* any data moves
    /// (the write-ahead half of the invariant): one intent record and
    /// one kill boundary, whatever the number of entries. Entry `i` is
    /// batch `first + i`, committed on its own by
    /// [`TenantStore::commit_batch`].
    pub(crate) fn journal_intents(&self, first: u32, entries: &[DrtEntry]) -> Result<(), PersistError> {
        debug_assert!(!entries.is_empty(), "an intent record holds at least one entry");
        debug_assert!(entries.iter().all(|e| bad_intent(e).is_none()), "unreadable intent");
        debug_assert!(u64::from(first) + entries.len() as u64 <= u64::from(u32::MAX));
        self.check(CommitPoint::BatchIntent)?;
        let mut payload = Vec::with_capacity(entries.len() * ENTRY_BYTES);
        for e in entries {
            payload.extend_from_slice(&entry_bytes(e));
        }
        self.kv().put(&journal_key(self.ns, first), &seal(TAG_JOURNAL, &payload))?;
        Ok(())
    }

    /// Mark `batch` moved: written only after the batch's migration
    /// traffic completed, and synced so the commit is durable. From this
    /// record on, recovery rolls the batch forward instead of
    /// discarding it.
    pub(crate) fn commit_batch(&self, batch: u32) -> Result<(), PersistError> {
        self.check(CommitPoint::BatchCommit)?;
        self.kv().put(&journal_commit_key(self.ns, batch), &seal(TAG_COMMIT, &[]))?;
        self.kv().sync()?;
        Ok(())
    }

    /// Read the journal back: every journaled entry as its own batch, in
    /// batch order, with its committed flag. One prefix scan reads the
    /// commit records and one the intent records; a commit record with
    /// no intent is ignored.
    pub fn journal(&self) -> Result<Vec<JournalBatch>, PersistError> {
        let cp = table_prefix(self.ns, b"migc:");
        let mut commits = std::collections::HashSet::new();
        self.kv().scan_prefix(&cp, |key, raw| {
            unseal(key, TAG_COMMIT, raw)?;
            let rest = &key[cp.len()..];
            if rest.len() != 4 {
                return Err(corrupt(key, "malformed journal commit key"));
            }
            commits.insert(le_u32(rest).expect("4 bytes"));
            Ok(())
        })?;
        let prefix = table_prefix(self.ns, b"mig:");
        let mut out = Vec::new();
        // `[first, end)` batch range of every intent record.
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        self.kv().scan_prefix(&prefix, |key, raw| {
            let payload = unseal(key, TAG_JOURNAL, raw)?;
            let rest = &key[prefix.len()..];
            if rest.len() != 4 {
                return Err(corrupt(key, "malformed journal key"));
            }
            let first = le_u32(rest).expect("4 bytes");
            if payload.is_empty() || payload.len() % ENTRY_BYTES != 0 {
                return Err(corrupt(
                    key,
                    format!(
                        "intent payload is {} bytes, not 1 or more whole {ENTRY_BYTES}-byte entries",
                        payload.len()
                    ),
                ));
            }
            let n = (payload.len() / ENTRY_BYTES) as u64;
            let end = u64::from(first) + n;
            if end > u64::from(u32::MAX) {
                return Err(corrupt(key, format!("{n} batches from {first} run past u32::MAX")));
            }
            for (bytes, batch) in payload.chunks_exact(ENTRY_BYTES).zip(first..) {
                let entry = entry_from_bytes(key, bytes)?;
                if let Some(why) = bad_intent(&entry) {
                    return Err(corrupt(key, format!("batch {batch}: {why}")));
                }
                out.push(JournalBatch { batch, committed: commits.contains(&batch), entry });
            }
            ranges.push((u64::from(first), end));
            Ok(())
        })?;
        ranges.sort_unstable();
        if let Some(w) = ranges.windows(2).find(|w| w[1].0 < w[0].1) {
            return Err(corrupt(
                &journal_key(self.ns, w[1].0 as u32),
                format!("batch {} is also claimed by the record at batch {}", w[1].0, w[0].0),
            ));
        }
        out.sort_unstable_by_key(|b| b.batch);
        Ok(out)
    }

    /// Delete every journal record (intent records first, then commit
    /// markers: a crash mid-clear leaves whole intent records whose
    /// committed entries the final save already published, or
    /// intent-less markers; recovery re-skips the former and ignores
    /// the latter).
    pub(crate) fn clear_journal(&self) -> Result<(), PersistError> {
        self.check(CommitPoint::JournalClear)?;
        for table in [&b"mig:"[..], b"migc:"] {
            for key in self.kv().keys_with_prefix(&table_prefix(self.ns, table)) {
                self.kv().delete(&key)?;
            }
        }
        self.kv().sync()?;
        Ok(())
    }
}

// ----------------------------------------------------------- recovery --

/// What [`recover`] found and did.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The post-recovery tables (`None` when nothing ever committed).
    pub tables: Option<(Drt, Rst)>,
    /// DRT entries re-published from committed journal batches.
    pub rolled_forward: usize,
    /// Journal batches discarded because their commit record is absent.
    pub discarded_batches: usize,
}

/// Bring one tenant's namespace of a reopened [`PipelineStore`] to a
/// consistent state.
///
/// * No journal → nothing to do; the committed generation (if any) *is*
///   the state.
/// * Journal but no committed generation → the crash predates the base
///   save the journal refers to; the journal is discarded wholesale.
/// * Otherwise every **committed** batch's entry is published into the
///   committed DRT (skipping entries the final save already published)
///   and **uncommitted** batches are discarded — their data
///   never finished moving, and the old mapping still resolves to valid
///   bytes because migration copies rather than destroys.
///
/// A rolled-forward state is committed as a fresh generation before the
/// journal is cleared, so a crash *during* recovery just recovers again.
/// Recovering an already-recovered store is a no-op: the journal is
/// empty, nothing rolls forward — recovery is idempotent.
///
/// Tenants recover independently: rolling tenant A forward never reads
/// or clears tenant B's journal, so a service restart can recover each
/// registered tenant in any order (and skip tenants it no longer
/// serves) without cross-contamination.
pub fn recover(store: TenantStore<'_>) -> Result<RecoveryOutcome, PersistError> {
    let journal = store.journal()?;
    if journal.is_empty() {
        return Ok(RecoveryOutcome {
            tables: store.load_tables()?,
            rolled_forward: 0,
            discarded_batches: 0,
        });
    }
    let Some(c) = store.committed()? else {
        let discarded = journal.len();
        store.clear_journal()?;
        return Ok(RecoveryOutcome { tables: None, rolled_forward: 0, discarded_batches: discarded });
    };
    let (mut drt, rst) = store.tables_at(&c)?;
    let mut rolled = 0usize;
    let mut discarded = 0usize;
    for b in &journal {
        if !b.committed {
            discarded += 1;
            continue;
        }
        let e = b.entry;
        if drt.lookup_exact(e.o_file, e.o_offset, e.length) == Some((e.r_file, e.r_offset)) {
            continue; // already published by the final save
        }
        if drt.insert(e) {
            rolled += 1;
        }
        // A rejected insert means a later committed state already covers
        // these bytes differently; the journal record is stale and the
        // committed mapping wins.
    }
    if rolled > 0 {
        let meta = if c.has_meta { Some(store.meta_at(c.gen)?.1) } else { None };
        store.save_generation(&drt, &rst, meta.as_deref())?;
    }
    store.clear_journal()?;
    Ok(RecoveryOutcome { tables: Some((drt, rst)), rolled_forward: rolled, discarded_batches: discarded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rssd::StripePair;
    use std::path::PathBuf;

    /// The tenant-0 view, where the single-tenant pipeline keeps its
    /// state.
    fn t0(store: &PipelineStore) -> TenantStore<'_> {
        store.tenant(TenantId(0))
    }

    fn tmp_path(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("mha-persist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn entry(off: u64, r_file: u32, r_off: u64) -> DrtEntry {
        DrtEntry {
            o_file: FileId(0),
            o_offset: off,
            r_file: FileId(r_file),
            r_offset: r_off,
            length: 4096,
        }
    }

    fn sample_tables() -> (Drt, Rst) {
        let mut drt = Drt::new();
        for i in 0..6u64 {
            assert!(drt.insert(entry(i * 8192, 70_000, i * 4096)));
        }
        let mut rst = Rst::new();
        rst.set(FileId(70_000), StripePair { h: 0, s: 64 << 10 });
        rst.set(FileId(70_001), StripePair { h: 128 << 10, s: 512 << 10 });
        (drt, rst)
    }

    /// Tables whose DRT spans three chunks (the last one partial) over
    /// two original files, with five RST rows.
    fn multi_chunk_tables() -> (Drt, Rst) {
        let mut drt = Drt::new();
        for i in 0..(2 * DRT_CHUNK_ENTRIES as u64 + 100) {
            let o_file = FileId(u32::from(i >= 5000));
            assert!(drt.insert(DrtEntry {
                o_file,
                o_offset: i * 8192,
                r_file: FileId(70_000 + (i % 5) as u32),
                r_offset: i * 4096,
                length: 4096,
            }));
        }
        let mut rst = Rst::new();
        for f in 0..5u64 {
            rst.set(FileId(70_000 + f as u32), StripePair { h: f << 16, s: 64 << 10 });
        }
        (drt, rst)
    }

    fn sample_plan() -> Plan {
        let (drt, rst) = sample_tables();
        plan_of(drt, rst)
    }

    /// A plan over three layouts: fixed striping, a replicated hybrid
    /// layout and an erasure-coded layout with uneven stripes.
    fn plan_of(drt: Drt, rst: Rst) -> Plan {
        let ids = |r: std::ops::Range<usize>| r.map(ServerId).collect::<Vec<_>>();
        Plan {
            scheme: Scheme::Mha,
            layouts: vec![
                (FileId(70_000), LayoutSpec::fixed(&ids(0..2), 64 << 10)),
                (
                    FileId(70_001),
                    LayoutSpec::hybrid(&ids(0..2), 16 << 10, &ids(6..8), 80 << 10)
                        .with_placement(Placement::Replicated(2)),
                ),
                (
                    FileId(70_002),
                    LayoutSpec::from_assignments([
                        (ServerId(3), 12_288),
                        (ServerId(1), 4096),
                        (ServerId(7), 131_072),
                        (ServerId(5), 65_536),
                    ])
                    .with_placement(Placement::ErasureCoded(3, 1)),
                ),
            ],
            resolver: PlanResolver::Drt(drt),
            rst,
            regions: vec![
                RegionInfo { file: FileId(70_000), len: 6 * 4096, group: 0, extents: 6 },
                RegionInfo { file: FileId(70_001), len: 1 << 33, group: 3, extents: 41 },
            ],
        }
    }

    #[test]
    fn tables_round_trip_through_a_committed_generation() {
        let path = tmp_path("tables-rt");
        let (drt, rst) = sample_tables();
        {
            let store = PipelineStore::open(&path).expect("open");
            assert!(store.load_tables().expect("empty load").is_none());
            let g0 = store.save_tables(&drt, &rst).expect("save");
            assert_eq!(g0, 0);
            let g1 = store.save_tables(&drt, &rst).expect("save again");
            assert_eq!(g1, 1, "each save commits a fresh generation");
        }
        let store = PipelineStore::open(&path).expect("reopen");
        let (d, r) = store.load_tables().expect("load").expect("committed");
        assert_eq!(d, drt);
        assert_eq!(r, rst);
        t0(&store).gc().expect("gc");
        let (d, r) = store.load_tables().expect("load after gc").expect("committed");
        assert_eq!((d, r), (drt, rst));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plan_round_trip_preserves_everything() {
        let path = tmp_path("plan-rt");
        let plan = sample_plan();
        {
            let store = PipelineStore::open(&path).expect("open");
            t0(&store).save_plan(&plan).expect("save plan");
        }
        let store = PipelineStore::open(&path).expect("reopen");
        let loaded = t0(&store).load_plan().expect("load").expect("committed plan");
        assert_eq!(loaded.scheme, plan.scheme);
        assert_eq!(loaded.layouts, plan.layouts);
        assert_eq!(loaded.rst, plan.rst);
        assert_eq!(loaded.regions, plan.regions);
        let (PlanResolver::Drt(got), PlanResolver::Drt(want)) =
            (&loaded.resolver, &plan.resolver)
        else {
            panic!("both plans must carry DRTs")
        };
        assert_eq!(got, want);
        // A reloaded layout maps every extent exactly as the planned one.
        let mut rng = simrt::SeedSeq::new(7).rng();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for ((_, want), (_, got)) in plan.layouts.iter().zip(&loaded.layouts) {
            for _ in 0..2000 {
                let offset = rng.gen_range(0..1u64 << 40);
                let len = rng.gen_range(0..4u64 << 20);
                want.map_extent_into(offset, len, &mut a);
                got.map_extent_into(offset, len, &mut b);
                assert_eq!(a, b, "[{offset}, +{len})");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn identity_plan_round_trips_without_a_drt() {
        let path = tmp_path("identity-rt");
        let plan = Plan {
            scheme: Scheme::Def,
            layouts: Vec::new(),
            resolver: PlanResolver::Identity,
            rst: Rst::new(),
            regions: Vec::new(),
        };
        let store = PipelineStore::open(&path).expect("open");
        t0(&store).save_plan(&plan).expect("save");
        let loaded = t0(&store).load_plan().expect("load").expect("committed");
        assert!(matches!(loaded.resolver, PlanResolver::Identity));
        assert_eq!(loaded.scheme, Scheme::Def);
        let _ = std::fs::remove_file(&path);
    }

    /// Meta payload of a DEF plan with one layout of `segments` followed
    /// by the raw `placement` bytes, no regions and no DRT.
    fn one_layout_meta(segments: &[(u64, u64)], placement: &[u8]) -> Vec<u8> {
        let mut p = vec![0];
        put_u64(&mut p, 1);
        put_u32(&mut p, 7);
        put_u64(&mut p, segments.len() as u64);
        for &(server, stripe) in segments {
            put_u64(&mut p, server);
            put_u64(&mut p, stripe);
        }
        p.extend_from_slice(placement);
        put_u64(&mut p, 0);
        p.push(0);
        p
    }

    /// Placement bytes: `tag` then each field as a u64.
    fn placement_bytes(tag: u8, fields: &[u64]) -> Vec<u8> {
        let mut p = vec![tag];
        for &f in fields {
            put_u64(&mut p, f);
        }
        p
    }

    #[test]
    fn malformed_meta_payloads_under_a_valid_crc_are_corrupt() {
        let path = tmp_path("meta-malformed");
        let store = PipelineStore::open(&path).expect("open");
        let plan = sample_plan();
        let gen = t0(&store).save_plan(&plan).expect("save");
        let mk = meta_key(0, gen);
        let load = |payload: &[u8]| {
            store.store().put(&mk, &seal(TAG_META, payload)).expect("put");
            t0(&store).load_plan()
        };
        let good = encode_meta(&plan);
        let two = [(0, 4096), (1, 4096)];
        let loaded = load(&one_layout_meta(&two, &placement_bytes(1, &[2])))
            .expect("a well-formed hand-built payload loads")
            .expect("committed");
        assert_eq!(loaded.layouts[0].1.placement(), Placement::Replicated(2));

        let mut cases: Vec<(String, Vec<u8>)> = (0..good.len())
            .map(|cut| (format!("truncated to {cut} bytes"), good[..cut].to_vec()))
            .collect();
        let mut unknown_scheme = good.clone();
        unknown_scheme[0] = 4;
        let mut bad_flag = good.clone();
        *bad_flag.last_mut().expect("nonempty") = 2;
        let mut many_layouts = vec![3];
        put_u64(&mut many_layouts, u64::MAX);
        let mut many_regions = vec![3];
        put_u64(&mut many_regions, 0);
        put_u64(&mut many_regions, 1 << 40);
        let mut many_segments = vec![3];
        put_u64(&mut many_segments, 1);
        put_u32(&mut many_segments, 7);
        put_u64(&mut many_segments, 1 << 60);
        many_segments.extend_from_slice(&[0; 40]);
        let striped = placement_bytes(0, &[]);
        cases.extend(
            [
                ("one trailing byte", [good.clone(), vec![0]].concat()),
                ("an unknown scheme tag", unknown_scheme),
                ("a has_drt flag of 2", bad_flag),
                ("an unknown placement tag", one_layout_meta(&two, &placement_bytes(3, &[]))),
                ("zero segments", one_layout_meta(&[], &striped)),
                ("a zero stripe", one_layout_meta(&[(0, 4096), (1, 0)], &striped)),
                ("stripes summing past u64", one_layout_meta(&[(0, u64::MAX), (1, 1)], &striped)),
                ("3 replicas over 2 segments", one_layout_meta(&two, &placement_bytes(1, &[3]))),
                ("1 replica", one_layout_meta(&two, &placement_bytes(1, &[1]))),
                ("EC(1+2) over 2 segments", one_layout_meta(&two, &placement_bytes(2, &[1, 2]))),
                ("EC(max+1)", one_layout_meta(&two, &placement_bytes(2, &[u64::MAX, 1]))),
                (
                    "replicas on one server",
                    one_layout_meta(&[(0, 1), (0, 1)], &placement_bytes(1, &[2])),
                ),
                ("a layout count past the payload", many_layouts),
                ("a region count past the payload", many_regions),
                ("a segment count past the payload", many_segments),
            ]
            .map(|(what, p)| (what.to_string(), p)),
        );
        for (what, payload) in &cases {
            match load(payload) {
                Err(PersistError::Corrupt { .. }) => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
        // Any single bit flip decodes to some plan or to an error, never
        // a panic.
        for i in 0..good.len() * 8 {
            let mut p = good.clone();
            p[i / 8] ^= 1 << (i % 8);
            let _ = decode_plan(&mk, &p, Drt::new(), Rst::new());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tampered_value_is_rejected_with_a_structured_error() {
        let path = tmp_path("tamper");
        let (drt, rst) = sample_tables();
        let store = PipelineStore::open(&path).expect("open");
        store.save_tables(&drt, &rst).expect("save");
        // Flip one payload bit of a committed DRT record, in place.
        let gen = t0(&store).committed_generation().expect("gen").expect("committed");
        let key = drt_chunk_key(0, gen, 0);
        let mut raw = store.store().get(&key).expect("get").expect("present");
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        store.store().put(&key, &raw).expect("tamper");
        match store.load_tables() {
            Err(PersistError::Corrupt { key, reason }) => {
                assert!(reason.contains("CRC"), "reason: {reason}");
                assert!(key.contains("pdrt"), "key: {key}");
            }
            other => panic!("tampering must surface as Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_version_is_rejected_as_version_mismatch() {
        let path = tmp_path("version");
        let (drt, rst) = sample_tables();
        let store = PipelineStore::open(&path).expect("open");
        store.save_tables(&drt, &rst).expect("save");
        let gen = t0(&store).committed_generation().expect("gen").expect("committed");
        let key = drt_chunk_key(0, gen, 0);
        let mut raw = store.store().get(&key).expect("get").expect("present");
        raw[3] = VERSION + 1;
        store.store().put(&key, &raw).expect("tamper");
        assert!(matches!(
            store.load_tables(),
            Err(PersistError::VersionMismatch { found, expected, .. })
                if found == VERSION + 1 && expected == VERSION
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_entry_under_a_committed_count_is_corrupt() {
        let path = tmp_path("count");
        let (drt, rst) = sample_tables();
        let store = PipelineStore::open(&path).expect("open");
        store.save_tables(&drt, &rst).expect("save");
        let gen = t0(&store).committed_generation().expect("gen").expect("committed");
        store.store().delete(&drt_chunk_key(0, gen, 0)).expect("delete");
        assert!(
            matches!(store.load_tables(), Err(PersistError::Corrupt { .. })),
            "count mismatch must be corrupt, not a silently shorter table"
        );
        let _ = std::fs::remove_file(&path);
    }

    fn assert_corrupt(store: &PipelineStore, what: &str) {
        match store.load_tables() {
            Err(PersistError::Corrupt { .. }) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn multi_chunk_generations_round_trip() {
        let path = tmp_path("chunks-rt");
        let (drt, rst) = multi_chunk_tables();
        assert!(drt.len() > 2 * DRT_CHUNK_ENTRIES, "spans a partial third chunk");
        let full = {
            let mut d = Drt::new();
            for i in 0..2 * DRT_CHUNK_ENTRIES as u64 {
                assert!(d.insert(entry(i * 8192, 70_000, i * 4096)));
            }
            d
        };
        {
            let store = PipelineStore::open(&path).expect("open");
            let gen = store.save_tables(&drt, &rst).expect("save");
            let keys = store.store().keys_with_prefix(&drt_gen_prefix(0, gen));
            assert_eq!(keys, (0..3).map(|c| drt_chunk_key(0, gen, c)).collect::<Vec<_>>());
            // Exactly two full chunks: no empty third record.
            let gen = store.save_tables(&full, &rst).expect("save full chunks");
            assert_eq!(store.store().keys_with_prefix(&drt_gen_prefix(0, gen)).len(), 2);
            assert_eq!(store.load_tables().expect("load").expect("committed").0, full);
            store.save_tables(&drt, &rst).expect("save again");
            // An empty table writes no chunk at all.
            let gen = store.tenant(TenantId(1)).save_tables(&Drt::new(), &rst).expect("save empty");
            assert!(store.store().keys_with_prefix(&drt_gen_prefix(1, gen)).is_empty());
            let (d, _) = store.tenant(TenantId(1)).load_tables().expect("load").expect("committed");
            assert!(d.is_empty());
        }
        let store = PipelineStore::open(&path).expect("reopen");
        let (d, r) = store.load_tables().expect("load").expect("committed");
        assert_eq!(d, drt);
        assert_eq!(d.entries(), drt.entries());
        assert_eq!(r, rst);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tampered_deleted_or_reordered_chunks_are_corrupt() {
        let path = tmp_path("chunks-tamper");
        let (drt, rst) = multi_chunk_tables();
        let store = PipelineStore::open(&path).expect("open");
        let gen = store.save_tables(&drt, &rst).expect("save");
        let key = |c: u32| drt_chunk_key(0, gen, c);
        let original: Vec<Vec<u8>> =
            (0..3).map(|c| store.store().get(&key(c)).expect("get").expect("present")).collect();
        let restore = || {
            for (c, raw) in original.iter().enumerate() {
                store.store().put(&key(c as u32), raw).expect("restore");
            }
            store.store().delete(&key(3)).expect("drop extra");
            assert_eq!(store.load_tables().expect("restored").expect("committed").0, drt);
        };
        let put = |c: u32, raw: &[u8]| store.store().put(&key(c), raw).expect("put");

        let mut flipped = original[1].clone();
        flipped[100] ^= 0x10;
        put(1, &flipped);
        assert_corrupt(&store, "bit flip in chunk 1");
        restore();
        for c in 0..3 {
            store.store().delete(&key(c)).expect("delete");
            assert_corrupt(&store, &format!("chunk {c} deleted"));
            restore();
        }
        put(0, &original[1]);
        put(1, &original[0]);
        assert_corrupt(&store, "chunks 0 and 1 swapped");
        restore();
        put(1, &original[2]);
        put(2, &original[1]);
        assert_corrupt(&store, "partial chunk moved before a full one");
        restore();
        put(3, &original[2]);
        assert_corrupt(&store, "an extra chunk after the partial one");
        restore();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_chunk_payloads_under_a_valid_crc_are_corrupt() {
        let path = tmp_path("chunks-malformed");
        let (drt, rst) = sample_tables();
        let store = PipelineStore::open(&path).expect("open");
        let gen = store.save_tables(&drt, &rst).expect("save");
        let good = drt.entries();
        let enc = |es: &[DrtEntry]| es.iter().flat_map(entry_bytes).collect::<Vec<u8>>();
        let with = |i: usize, f: &dyn Fn(&mut DrtEntry)| {
            let mut es = good.clone();
            f(&mut es[i]);
            enc(&es)
        };
        let mut unsorted = good.clone();
        unsorted.swap(1, 2);
        let oversized: Vec<DrtEntry> =
            (0..=DRT_CHUNK_ENTRIES as u64).map(|i| entry(i * 8192, 70_000, 0)).collect();
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("truncated mid-entry", enc(&good)[..good.len() * 32 - 5].to_vec()),
            ("one entry short", enc(&good[..good.len() - 1])),
            ("a stray byte", [enc(&good), vec![0]].concat()),
            ("empty", Vec::new()),
            ("unsorted", enc(&unsorted)),
            ("duplicate", with(1, &|e| *e = good[0])),
            ("overlapping by one byte", with(1, &|e| e.o_offset = 4095)),
            ("zero-length", with(3, &|e| e.length = 0)),
            ("ends past u64::MAX", with(5, &|e| e.o_offset = u64::MAX - 10)),
            ("file out of order", with(0, &|e| e.o_file = FileId(3))),
            ("more than a chunk", enc(&oversized)),
        ];
        for (what, payload) in cases {
            store.store().put(&drt_chunk_key(0, gen, 0), &seal(TAG_DRT, &payload)).expect("put");
            assert_corrupt(&store, what);
        }
        store.store().put(&drt_chunk_key(0, gen, 0), &seal(TAG_DRT, &enc(&good))).expect("put");
        assert_eq!(store.load_tables().expect("load").expect("committed").0, drt);
        let mut odd_key = drt_gen_prefix(0, gen);
        odd_key.extend_from_slice(&[1, 2, 3]);
        store.store().put(&odd_key, &seal(TAG_DRT, &enc(&good))).expect("put");
        assert_corrupt(&store, "a malformed chunk key");
        let _ = std::fs::remove_file(&path);
    }

    /// A commit record claiming more or fewer entries than its chunk
    /// records hold is corrupt, and the load rejects it while counting the
    /// chunk keys, before it reserves anything for the claim (a reservation
    /// for 2^40 or `u64::MAX` entries would abort the test).
    #[test]
    fn a_drt_count_its_chunks_cannot_hold_is_corrupt_before_any_reservation() {
        let path = tmp_path("oversized-count");
        let (drt, rst) = sample_tables();
        let store = PipelineStore::open(&path).expect("open");
        let gen = store.save_tables(&drt, &rst).expect("save");
        let mut chunks = 0;
        store.store().scan_keys(&drt_gen_prefix(0, gen), |_| chunks += 1);
        assert_eq!(chunks, 1, "one real chunk");
        let full = DRT_CHUNK_ENTRIES as u64;
        for claimed in [1u64 << 40, u64::MAX, full + 1, 0] {
            let mut commit = Vec::new();
            put_u64(&mut commit, gen);
            put_u64(&mut commit, claimed);
            put_u64(&mut commit, rst.len() as u64);
            commit.push(0);
            store.store().put(&commit_key(0), &seal(TAG_COMMIT, &commit)).expect("put");
            match store.load_tables() {
                Err(PersistError::Corrupt { reason, .. }) => assert_eq!(
                    reason,
                    format!("1 DRT chunk records on disk, commit record expects {claimed} entries")
                ),
                other => panic!("{claimed}: expected Corrupt, got {other:?}"),
            }
        }
        for honest in [1, drt.len() as u64, full] {
            let mut commit = Vec::new();
            put_u64(&mut commit, gen);
            put_u64(&mut commit, honest);
            put_u64(&mut commit, rst.len() as u64);
            commit.push(0);
            store.store().put(&commit_key(0), &seal(TAG_COMMIT, &commit)).expect("put");
            match store.load_tables() {
                Ok(_) if honest == drt.len() as u64 => {}
                Err(PersistError::Corrupt { reason, .. }) if honest != drt.len() as u64 => assert_eq!(
                    reason,
                    format!("{} DRT entries on disk, commit record expects {honest}", drt.len())
                ),
                other => panic!("{honest}: unexpected {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_store_in_the_per_entry_format_is_a_version_mismatch() {
        let path = tmp_path("old-format");
        let store = PipelineStore::open(&path).expect("open");
        // Version 1 wrote one record per DRT entry, keyed by file and
        // offset, and a commit record counting them.
        let old = |tag: u8, payload: &[u8]| {
            let mut raw = seal(tag, payload);
            raw[3] = 1;
            raw
        };
        let mut k = drt_gen_prefix(0, 0);
        k.extend_from_slice(&0u32.to_le_bytes());
        k.extend_from_slice(&0u64.to_le_bytes());
        store.store().put(&k, &old(TAG_DRT, &[0; 20])).expect("put");
        let mut commit = Vec::new();
        commit.extend_from_slice(&0u64.to_le_bytes());
        commit.extend_from_slice(&1u64.to_le_bytes());
        commit.extend_from_slice(&0u64.to_le_bytes());
        commit.push(0);
        store.store().put(&commit_key(0), &old(TAG_COMMIT, &commit)).expect("put");
        assert!(matches!(
            store.load_tables(),
            Err(PersistError::VersionMismatch { found: 1, expected: VERSION, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    /// A simulated crash at every commit boundary of a three-chunk
    /// `save_tables` leaves the old generation loading.
    #[test]
    fn save_tables_kill_matrix_keeps_the_old_generation() {
        let (old_drt, old_rst) = sample_tables();
        let (drt, rst) = multi_chunk_tables();
        let path = tmp_path("tables-matrix-record");
        let boundaries = {
            let store = PipelineStore::open(&path).expect("open");
            store.save_tables(&old_drt, &old_rst).expect("base save");
            store.kill_switch().reset();
            store.save_tables(&drt, &rst).expect("recording save");
            store.kill_switch().boundaries()
        };
        let _ = std::fs::remove_file(&path);
        assert_eq!(boundaries, 3 + 5 + 1, "one boundary per chunk, per RST row and the commit");

        for k in 0..boundaries {
            let path = tmp_path(&format!("tables-matrix-{k}"));
            {
                let store = PipelineStore::open(&path).expect("open");
                store.save_tables(&old_drt, &old_rst).expect("base save");
                store.kill_switch().reset();
                store.kill_switch().arm(k);
                match store.save_tables(&drt, &rst) {
                    Err(PersistError::Killed(_)) => {}
                    other => panic!("boundary {k}: expected Killed, got {other:?}"),
                }
            }
            let store = PipelineStore::open(&path).expect("reopen");
            let (d, r) = store.load_tables().expect("load").expect("base generation committed");
            assert_eq!(d, old_drt, "boundary {k}: DRT must be the old generation");
            assert_eq!(r, old_rst, "boundary {k}: RST must be the old generation");
            let out = recover(t0(&store)).expect("recover");
            assert_eq!(out.tables.expect("tables"), (old_drt.clone(), old_rst.clone()));
            assert_eq!(out.rolled_forward, 0);
            // A retried save skips the dead generation's records and wins.
            store.kill_switch().disarm();
            store.save_tables(&drt, &rst).expect("retry save");
            assert_eq!(store.load_tables().expect("load").expect("committed"), (drt.clone(), rst.clone()));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn kill_matrix_over_save_plan_never_exposes_a_partial_generation() {
        // Recording run: measure the boundary count of one save_plan on
        // top of an already-committed older generation.
        let (drt, rst) = multi_chunk_tables();
        let plan = plan_of(drt, rst);
        let (old_drt, old_rst) = {
            let mut d = Drt::new();
            assert!(d.insert(entry(1 << 30, 60_000, 0)));
            let mut r = Rst::new();
            r.set(FileId(60_000), StripePair { h: 64 << 10, s: 64 << 10 });
            (d, r)
        };
        let path = tmp_path("matrix-record");
        let boundaries = {
            let store = PipelineStore::open(&path).expect("open");
            store.save_tables(&old_drt, &old_rst).expect("base save");
            store.kill_switch().reset();
            t0(&store).save_plan(&plan).expect("recording save");
            store.kill_switch().boundaries()
        };
        let _ = std::fs::remove_file(&path);
        assert!(boundaries >= 10, "expected a real matrix, got {boundaries} boundaries");

        for k in 0..boundaries {
            let path = tmp_path(&format!("matrix-{k}"));
            {
                let store = PipelineStore::open(&path).expect("open");
                store.save_tables(&old_drt, &old_rst).expect("base save");
                store.kill_switch().reset();
                store.kill_switch().arm(k);
                match t0(&store).save_plan(&plan) {
                    Err(PersistError::Killed(_)) => {}
                    other => panic!("boundary {k}: expected Killed, got {other:?}"),
                }
            }
            // "Crash", reopen, recover: the store must resolve to the old
            // committed generation, never a mix.
            let store = PipelineStore::open(&path).expect("reopen");
            let out = recover(t0(&store)).expect("recover");
            let (d, r) = out.tables.expect("base generation still committed");
            assert_eq!(d, old_drt, "boundary {k}: DRT must be the old generation");
            assert_eq!(r, old_rst, "boundary {k}: RST must be the old generation");
            assert_eq!(out.rolled_forward, 0);
            // And a retried save on the recovered store works and wins.
            store.kill_switch().disarm();
            t0(&store).save_plan(&plan).expect("retry save");
            let loaded = t0(&store).load_plan().expect("load").expect("plan");
            assert_eq!(loaded.rst, plan.rst);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn journal_roll_forward_and_discard() {
        let path = tmp_path("journal");
        let store = PipelineStore::open(&path).expect("open");
        let (drt, rst) = sample_tables();
        store.save_tables(&drt, &rst).expect("base");
        // Batches 0 and 1 committed (moved), batch 2 only journaled
        // (crash before its movement finished).
        let committed = [entry(1 << 20, 70_001, 0), entry((1 << 20) + 8192, 70_001, 4096)];
        let uncommitted = [entry(1 << 21, 70_001, 8192)];
        t0(&store).journal_intents(0, &committed).expect("journal 0..2");
        t0(&store).commit_batch(0).expect("commit 0");
        t0(&store).commit_batch(1).expect("commit 1");
        t0(&store).journal_intents(2, &uncommitted).expect("journal 2");

        let out = recover(t0(&store)).expect("recover");
        assert_eq!(out.rolled_forward, 2);
        assert_eq!(out.discarded_batches, 1);
        let (d, _) = out.tables.expect("tables");
        for e in &committed {
            assert_eq!(
                d.lookup_exact(e.o_file, e.o_offset, e.length),
                Some((e.r_file, e.r_offset)),
                "committed batch must be rolled forward"
            );
        }
        for e in &uncommitted {
            assert_eq!(
                d.lookup_exact(e.o_file, e.o_offset, e.length),
                None,
                "uncommitted batch must be discarded"
            );
        }
        // Idempotence: recovering again changes nothing.
        let again = recover(t0(&store)).expect("recover again");
        assert_eq!(again.rolled_forward, 0);
        assert_eq!(again.discarded_batches, 0);
        assert_eq!(again.tables.expect("tables").0, d);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_with_no_base_generation_is_discarded() {
        let path = tmp_path("orphan-journal");
        let store = PipelineStore::open(&path).expect("open");
        t0(&store).journal_intents(0, &[entry(0, 70_000, 0)]).expect("journal");
        t0(&store).commit_batch(0).expect("commit");
        let out = recover(t0(&store)).expect("recover");
        assert!(out.tables.is_none());
        assert_eq!(out.discarded_batches, 1);
        assert!(t0(&store).journal().expect("journal").is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_intent_records_read_back_as_one_batch_per_entry() {
        let path = tmp_path("intents");
        let store = PipelineStore::open(&path).expect("open");
        let es: Vec<DrtEntry> = (0..5u64).map(|i| entry(i * 8192, 70_001, i * 4096)).collect();
        // Two records, written out of batch order; a marker with no
        // intent (batch 9) is ignored.
        t0(&store).journal_intents(3, &es[3..]).expect("journal 3..5");
        t0(&store).journal_intents(0, &es[..3]).expect("journal 0..3");
        for b in [1, 4, 9] {
            t0(&store).commit_batch(b).expect("commit");
        }
        let journal = t0(&store).journal().expect("journal");
        let got: Vec<(u32, bool, DrtEntry)> =
            journal.iter().map(|b| (b.batch, b.committed, b.entry)).collect();
        let want: Vec<(u32, bool, DrtEntry)> =
            es.iter().zip(0u32..).map(|(e, b)| (b, b == 1 || b == 4, *e)).collect();
        assert_eq!(got, want);
        assert_eq!(store.store().keys_with_prefix(b"mig:").len(), 2, "one key per record");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_journal_records_under_a_valid_crc_are_corrupt() {
        let path = tmp_path("journal-malformed");
        let store = PipelineStore::open(&path).expect("open");
        let (drt, rst) = sample_tables();
        store.save_tables(&drt, &rst).expect("base");
        let good = [entry(1 << 20, 70_001, 0), entry((1 << 20) + 8192, 70_001, 4096)];
        let enc = |es: &[DrtEntry]| es.iter().flat_map(entry_bytes).collect::<Vec<u8>>();
        let with = |f: &dyn Fn(&mut DrtEntry)| {
            let mut es = good;
            f(&mut es[1]);
            enc(&es)
        };
        // Batch 100 is free: only the key's length is wrong.
        let mut odd_key = journal_key(0, 100);
        odd_key.push(0);
        let cases: Vec<(&str, Vec<u8>, Vec<u8>)> = vec![
            ("empty", journal_key(0, 0), Vec::new()),
            ("truncated mid-entry", journal_key(0, 0), enc(&good)[..64 - 5].to_vec()),
            ("a stray byte", journal_key(0, 0), [enc(&good), vec![0]].concat()),
            ("zero-length", journal_key(0, 0), with(&|e| e.length = 0)),
            ("ends past u64::MAX", journal_key(0, 0), with(&|e| e.o_offset = u64::MAX - 10)),
            ("new home ends past u64::MAX", journal_key(0, 0), with(&|e| e.r_offset = u64::MAX)),
            ("batches past u32::MAX", journal_key(0, u32::MAX - 1), enc(&good)),
            ("a key that is not 4 bytes", odd_key, enc(&good)),
            ("a batch claimed twice", journal_key(0, 1), enc(&good)),
        ];
        // A well-formed record for batches 0 and 1, which the last case
        // overlaps.
        t0(&store).journal_intents(0, &good).expect("journal");
        for (what, key, payload) in cases {
            store.store().put(&key, &seal(TAG_JOURNAL, &payload)).expect("put");
            match t0(&store).journal() {
                Err(PersistError::Corrupt { .. }) => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
            match recover(t0(&store)) {
                Err(PersistError::Corrupt { .. }) => {}
                other => panic!("{what}: recovery expected Corrupt, got {other:?}"),
            }
            store.store().delete(&key).expect("delete");
            if key == journal_key(0, 0) {
                t0(&store).journal_intents(0, &good).expect("restore");
            }
        }
        assert_eq!(t0(&store).journal().expect("journal").len(), 2);
        let mut odd_commit = journal_commit_key(0, 0);
        odd_commit.push(0);
        store.store().put(&odd_commit, &seal(TAG_COMMIT, &[])).expect("put");
        assert!(matches!(t0(&store).journal(), Err(PersistError::Corrupt { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_version_3_per_entry_journal_is_a_version_mismatch() {
        let path = tmp_path("journal-v3");
        let store = PipelineStore::open(&path).expect("open");
        // Version 3 wrote one `mig:<batch le32>:<index le32>` record per
        // entry.
        let mut k = journal_key(0, 0);
        k.push(b':');
        k.extend_from_slice(&0u32.to_le_bytes());
        let mut raw = seal(TAG_JOURNAL, &entry_bytes(&entry(0, 70_000, 0)));
        raw[3] = 3;
        store.store().put(&k, &raw).expect("put");
        for got in [t0(&store).journal().map(|_| ()), recover(t0(&store)).map(|_| ())] {
            assert!(
                matches!(got, Err(PersistError::VersionMismatch { found: 3, expected: 4, .. })),
                "{got:?}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_log_falls_back_to_an_older_committed_state() {
        let path = tmp_path("truncate");
        let (drt, rst) = sample_tables();
        let full_len = {
            let store = PipelineStore::open(&path).expect("open");
            store.save_tables(&drt, &rst).expect("save");
            std::fs::metadata(&path).expect("meta").len()
        };
        // Chop the file shorter and shorter: every prefix must open and
        // resolve to either the full tables (nothing essential lost) or
        // no committed state — never a partial or a panic.
        for cut in (0..full_len).step_by(7) {
            let store = PipelineStore::open(&path).expect("open full");
            drop(store);
            let f = std::fs::OpenOptions::new().write(true).open(&path).expect("open file");
            f.set_len(cut).expect("truncate");
            drop(f);
            let store = PipelineStore::open(&path).expect("open truncated");
            match store.load_tables() {
                Ok(None) => {}
                Ok(Some((d, r))) => {
                    assert_eq!((d, r), (drt.clone(), rst.clone()), "cut at {cut}");
                }
                Err(e) => panic!("truncation must be recovered, not error: {e} (cut {cut})"),
            }
            // Rewrite the full state for the next iteration.
            let _ = std::fs::remove_file(&path);
            let store = PipelineStore::open(&path).expect("reopen");
            store.save_tables(&drt, &rst).expect("resave");
        }
        let _ = std::fs::remove_file(&path);
    }

    fn tenant_tables(tag: u64) -> (Drt, Rst) {
        let mut drt = Drt::new();
        for i in 0..4u64 {
            assert!(drt.insert(DrtEntry {
                o_file: FileId(tag as u32),
                o_offset: i * 8192,
                r_file: FileId(80_000 + tag as u32),
                r_offset: i * 4096 + tag * 1_000_000,
                length: 4096,
            }));
        }
        let mut rst = Rst::new();
        rst.set(FileId(80_000 + tag as u32), StripePair { h: 0, s: (64 << 10) * (tag + 1) });
        (drt, rst)
    }

    #[test]
    fn tenant_zero_view_is_the_legacy_store_verbatim() {
        let path = tmp_path("tenant-zero");
        let store = PipelineStore::open(&path).expect("open");
        let (drt, rst) = sample_tables();
        // The store's own table calls are tenant 0's, both ways round.
        let g = t0(&store).save_tables(&drt, &rst).expect("ns save");
        let (d, r) = store.load_tables().expect("legacy load").expect("committed");
        assert_eq!((d, r), (drt.clone(), rst.clone()));
        let g2 = store.save_tables(&drt, &rst).expect("legacy save");
        assert_eq!(g2, g + 1);
        assert_eq!(t0(&store).committed_generation().expect("ns gen"), Some(g2));
        let _ = std::fs::remove_file(&path);
    }

    /// Every key the pipeline writes, as literal bytes: tenant 0 adds no
    /// prefix, tenant 7 prefixes `t` + le32 + `:`. Generations are le64,
    /// DRT chunks be32, RST files le32, journal batches le32.
    #[test]
    fn key_bytes_are_pinned() {
        let path = tmp_path("key-bytes");
        let store = PipelineStore::open(&path).expect("open");
        let (drt, rst) = sample_tables();
        let mut two_chunks = Drt::new();
        for i in 0..=DRT_CHUNK_ENTRIES as u64 {
            assert!(two_chunks.insert(entry(i * 8192, 70_000, i * 4096)));
        }
        for t in [0, 7] {
            let ts = store.tenant(TenantId(t));
            assert_eq!(ts.save_tables(&two_chunks, &rst).expect("save tables"), 0);
            assert_eq!(ts.save_plan(&sample_plan()).expect("save plan"), 1);
            ts.journal_intents(3, &drt.entries()[..2]).expect("journal");
            ts.commit_batch(4).expect("commit");
            let k = journal_key(t, 3);
            let raw = store.store().get(&k).expect("get").expect("intent");
            assert_eq!(unseal(&k, TAG_JOURNAL, &raw).expect("sealed").len(), 64, "two entries");
        }
        let keys = |prefix: &[u8]| -> Vec<Vec<u8>> {
            [
                &b"mig:\x03\x00\x00\x00"[..],
                b"migc:\x04\x00\x00\x00",
                b"pcommit",
                b"pdrt:\x00\x00\x00\x00\x00\x00\x00\x00:\x00\x00\x00\x00",
                b"pdrt:\x00\x00\x00\x00\x00\x00\x00\x00:\x00\x00\x00\x01",
                b"pdrt:\x01\x00\x00\x00\x00\x00\x00\x00:\x00\x00\x00\x00",
                b"pmeta:\x01\x00\x00\x00\x00\x00\x00\x00",
                b"prst:\x00\x00\x00\x00\x00\x00\x00\x00:\x70\x11\x01\x00",
                b"prst:\x00\x00\x00\x00\x00\x00\x00\x00:\x71\x11\x01\x00",
                b"prst:\x01\x00\x00\x00\x00\x00\x00\x00:\x70\x11\x01\x00",
                b"prst:\x01\x00\x00\x00\x00\x00\x00\x00:\x71\x11\x01\x00",
            ]
            .iter()
            .map(|k| [prefix, k].concat())
            .collect()
        };
        let want = [keys(b""), keys(b"t\x07\x00\x00\x00:")].concat();
        assert_eq!(store.store().keys_with_prefix(b""), want);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn co_tenants_on_one_store_never_observe_each_other() {
        let path = tmp_path("tenant-iso");
        let store = PipelineStore::open(&path).expect("open");
        let (d0, r0) = sample_tables();
        store.save_tables(&d0, &r0).expect("legacy save");
        for t in 1..=3u32 {
            let (d, r) = tenant_tables(u64::from(t));
            store.tenant(TenantId(t)).save_tables(&d, &r).expect("tenant save");
        }
        // Each view loads exactly what it saved.
        let (ld, lr) = store.load_tables().expect("legacy").expect("committed");
        assert_eq!((ld, lr), (d0, r0));
        for t in 1..=3u32 {
            let (d, r) = tenant_tables(u64::from(t));
            let (td, tr) = store.tenant(TenantId(t)).load_tables().expect("load").expect("committed");
            assert_eq!((td, tr), (d, r), "tenant {t} sees foreign tables");
        }
        // Re-saving one tenant advances only that tenant's generation.
        let before: Vec<_> = (0..=3u32)
            .map(|t| store.tenant(TenantId(t)).committed_generation().unwrap())
            .collect();
        let (d2, r2) = tenant_tables(2);
        store.tenant(TenantId(2)).save_tables(&d2, &r2).expect("resave");
        for t in 0..=3u32 {
            let now = store.tenant(TenantId(t)).committed_generation().unwrap();
            if t == 2 {
                assert_eq!(now, before[t as usize].map(|g| g + 1));
            } else {
                assert_eq!(now, before[t as usize], "tenant {t}'s generation moved");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_rolls_forward_and_discards_per_namespace_only() {
        let path = tmp_path("tenant-recover");
        let store = PipelineStore::open(&path).expect("open");
        for t in 1..=2u32 {
            let (d, r) = tenant_tables(u64::from(t));
            store.tenant(TenantId(t)).save_tables(&d, &r).expect("save");
        }
        // Tenant 1: a committed journal batch recovery must roll forward.
        let extra1 = DrtEntry {
            o_file: FileId(1),
            o_offset: 1 << 30,
            r_file: FileId(80_001),
            r_offset: 1 << 30,
            length: 4096,
        };
        let t1 = store.tenant(TenantId(1));
        t1.journal_intents(0, std::slice::from_ref(&extra1)).expect("journal");
        t1.commit_batch(0).expect("commit");
        // Tenant 2: an uncommitted batch recovery must discard.
        let extra2 = DrtEntry { o_file: FileId(2), ..extra1 };
        store.tenant(TenantId(2)).journal_intents(0, std::slice::from_ref(&extra2)).expect("journal");

        let o1 = recover(store.tenant(TenantId(1))).expect("recover t1");
        assert_eq!(o1.rolled_forward, 1);
        assert_eq!(o1.discarded_batches, 0);
        let (d1, _) = o1.tables.expect("tables");
        assert_eq!(
            d1.lookup_exact(extra1.o_file, extra1.o_offset, extra1.length),
            Some((extra1.r_file, extra1.r_offset))
        );

        // Tenant 2's journal was untouched by tenant 1's recovery.
        let o2 = recover(store.tenant(TenantId(2))).expect("recover t2");
        assert_eq!(o2.rolled_forward, 0);
        assert_eq!(o2.discarded_batches, 1);
        let (d2, _) = o2.tables.expect("tables");
        assert_eq!(d2.lookup_exact(extra2.o_file, extra2.o_offset, extra2.length), None);

        // Tenant 0 never had state and still does not.
        let o0 = recover(t0(&store)).expect("recover tenant 0");
        assert!(o0.tables.is_none());
        let _ = std::fs::remove_file(&path);
    }
}
