//! The store: a WAL-backed ordered index with an exact LRU value cache.
//!
//! Each live key is held once, as a `BTreeMap` key naming a slot. A slot
//! records where the value sits in the log and, when the value is cached,
//! its bytes and its place in an intrusive doubly linked recency list over
//! the cached slots. Freed slots are reused from a free list.
//!
//! Values stay on disk until they are read: the cache fills on `get` only
//! (write-around), and recovery streams the log instead of loading it, so
//! memory follows the live keys and the values actually read.

use crate::error::{Error, Result};
use crate::wal;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::ops::Bound;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// fsync after every mutation (the paper's write-through durability).
    /// Disable only for bulk loads followed by an explicit [`Store::sync`].
    pub sync_on_write: bool,
    /// Maximum number of values read back by [`Store::get`] that stay
    /// in memory; older ones are evicted and re-read from the log on
    /// demand. `usize::MAX` disables eviction.
    pub max_cached_values: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { sync_on_write: true, max_cached_values: 1 << 16 }
    }
}

/// Operation counters for overhead reporting (Fig. 14 instrumentation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Completed put operations.
    pub puts: u64,
    /// Completed get operations.
    pub gets: u64,
    /// Completed delete operations.
    pub deletes: u64,
    /// Gets served from the in-memory cache.
    pub cache_hits: u64,
    /// Gets that had to re-read the log.
    pub cache_misses: u64,
    /// Current log length in bytes.
    pub log_bytes: u64,
    /// Live (non-deleted) keys.
    pub live_entries: u64,
}

/// End of the recency list.
const NIL: u32 = u32::MAX;

/// Where a live value can be found, and its cache state.
struct Slot {
    /// Offset of the value bytes within the log.
    offset: u64,
    /// Value length.
    len: u32,
    /// In-memory copy, if cached.
    cached: Option<Box<[u8]>>,
    /// Neighbours in the recency list (meaningful only while cached):
    /// `prev` is more recently used, `next` less.
    prev: u32,
    next: u32,
}

struct Inner {
    file: File,
    log_len: u64,
    index: BTreeMap<Box<[u8]>, u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Most and least recently used cached slots.
    head: u32,
    tail: u32,
    cached_count: usize,
    stats: StoreStats,
}

/// The live keys starting with `prefix`, in key order, with their slots.
fn prefix_range<'a>(
    index: &'a BTreeMap<Box<[u8]>, u32>,
    prefix: &'a [u8],
) -> impl Iterator<Item = (&'a [u8], u32)> + 'a {
    index
        .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
        .map(|(k, &i)| (&k[..], i))
        .take_while(move |(k, _)| k.starts_with(prefix))
}

impl Inner {
    /// Point `key` at a value of `len` bytes at `offset`, dropping any
    /// cached copy of its old value.
    fn upsert(&mut self, key: &[u8], offset: u64, len: u32) -> Result<()> {
        // One tree search per call, which log recovery makes per record;
        // an overwrite pays for a key copy it then drops.
        let i = match self.index.entry(key.into()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let slot = Slot { offset, len, cached: None, prev: NIL, next: NIL };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.slots[i as usize] = slot;
                        i
                    }
                    None => {
                        let i = u32::try_from(self.slots.len())
                            .ok()
                            .filter(|&i| i != NIL)
                            .ok_or(Error::TooLarge)?;
                        self.slots.push(slot);
                        i
                    }
                };
                e.insert(i);
                return Ok(());
            }
        };
        self.uncache(i);
        let slot = &mut self.slots[i as usize];
        slot.offset = offset;
        slot.len = len;
        Ok(())
    }

    /// Drop `key` if it is live.
    fn remove(&mut self, key: &[u8]) {
        if let Some(i) = self.index.remove(key) {
            self.uncache(i);
            self.free.push(i);
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.slots[i as usize].prev, self.slots[i as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = self.head;
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = old;
        match old {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Mark cached slot `i` most recently used.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Cache `value` in uncached slot `i` as the most recently used.
    fn cache(&mut self, i: u32, value: Box<[u8]>) {
        self.slots[i as usize].cached = Some(value);
        self.push_front(i);
        self.cached_count += 1;
    }

    fn uncache(&mut self, i: u32) {
        if self.slots[i as usize].cached.take().is_some() {
            self.unlink(i);
            self.cached_count -= 1;
        }
    }

    /// Evict cached values beyond the cap, least recently used first.
    fn enforce_cache_cap(&mut self, cap: usize) {
        while self.cached_count > cap {
            self.uncache(self.tail);
        }
    }

    /// Read slot `i`'s value from the log into `buf` with one `pread`.
    fn read_value(&self, i: u32, buf: &mut Vec<u8>) -> Result<()> {
        let slot = &self.slots[i as usize];
        buf.resize(slot.len as usize, 0);
        self.file.read_exact_at(buf, slot.offset)?;
        Ok(())
    }
}

/// A durable key-value store (see crate docs).
pub struct Store {
    path: PathBuf,
    opts: StoreOptions,
    inner: Mutex<Inner>,
}

impl Store {
    /// Open (creating if absent) the store at `path`, recovering from the
    /// existing log. A torn tail from a crash is truncated away.
    ///
    /// Recovery streams the log through a fixed window and keeps only the
    /// live keys and where their values sit, so it needs memory for the
    /// keys, not for the log.
    pub fn open(path: impl AsRef<Path>, opts: StoreOptions) -> Result<Store> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)?;
        let len = file.metadata()?.len();
        let mut walk = wal::Stream::new(file.try_clone()?, len);
        let mut inner = Inner {
            file,
            log_len: 0,
            index: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cached_count: 0,
            stats: StoreStats::default(),
        };
        while let Some(rec) = walk.next_record()? {
            match rec.value_len {
                Some(len) => inner.upsert(rec.key, rec.value_offset(), len)?,
                None => inner.remove(rec.key),
            }
        }
        if walk.torn() {
            // Drop the torn tail so future appends start on a record edge.
            inner.file.set_len(walk.valid_len())?;
            inner.file.sync_data()?;
        }
        inner.log_len = walk.valid_len();
        Ok(Store { path, opts, inner: Mutex::new(inner) })
    }

    /// Open with default options.
    pub fn open_default(path: impl AsRef<Path>) -> Result<Store> {
        Self::open(path, StoreOptions::default())
    }

    /// The store state. Every update leaves it consistent before anything
    /// that can panic runs (a [`Store::scan_prefix`] visitor, say), so
    /// poison is ignored.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `rec` to the log, returning the offset it starts at.
    fn append(&self, g: &mut Inner, rec: &[u8]) -> Result<u64> {
        let offset = g.log_len;
        g.file.write_all(rec)?;
        if self.opts.sync_on_write {
            g.file.sync_data()?;
        }
        g.log_len += rec.len() as u64;
        Ok(offset)
    }

    /// Insert or overwrite `key` with `value`.
    ///
    /// The value goes to the log only; the cache fills on reads. An
    /// overwrite drops the key's cached old value, so its next `get`
    /// re-reads the log.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let rec = wal::encode_put(key, value)?;
        let mut guard = self.lock();
        let g = &mut *guard;
        let offset = self.append(g, &rec)?;
        let value_off = offset + wal::HEADER as u64 + key.len() as u64;
        g.upsert(key, value_off, value.len() as u32)?;
        g.stats.puts += 1;
        Ok(())
    }

    /// Look up `key`. Cold values are re-read from the log and re-cached.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut guard = self.lock();
        let g = &mut *guard;
        g.stats.gets += 1;
        let Some(&i) = g.index.get(key) else {
            return Ok(None);
        };
        if let Some(v) = &g.slots[i as usize].cached {
            let out = v.to_vec();
            g.stats.cache_hits += 1;
            g.touch(i);
            return Ok(Some(out));
        }
        let mut buf = Vec::new();
        g.read_value(i, &mut buf)?;
        g.stats.cache_misses += 1;
        g.cache(i, buf.as_slice().into());
        g.enforce_cache_cap(self.opts.max_cached_values);
        Ok(Some(buf))
    }

    /// Remove `key`. Returns whether it existed.
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        let mut guard = self.lock();
        let g = &mut *guard;
        if !g.index.contains_key(key) {
            return Ok(false);
        }
        self.append(g, &wal::encode_delete(key)?)?;
        g.remove(key);
        g.stats.deletes += 1;
        Ok(true)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// True when no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live keys starting with `prefix`, sorted. Tables sharing one store
    /// namespace themselves with key prefixes (`drt:`, `rst:`), so bulk
    /// loads scan only their own records.
    pub fn keys_with_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        let mut keys = Vec::new();
        self.scan_keys(prefix, |k| keys.push(k.to_vec()));
        keys
    }

    /// Visit every live key starting with `prefix`, in key order, without
    /// copying it or reading its value.
    ///
    /// The store stays locked for the walk, so `f` must not call back
    /// into it.
    pub fn scan_keys(&self, prefix: &[u8], mut f: impl FnMut(&[u8])) {
        for (key, _) in prefix_range(&self.lock().index, prefix) {
            f(key);
        }
    }

    /// Visit every live entry whose key starts with `prefix`, in key
    /// order, stopping at the first error `f` returns.
    ///
    /// Each entry counts as a get, served from the cache when its value is
    /// cached and read from the log otherwise. The walk neither fills the
    /// cache nor changes its recency order, so a bulk load does not evict
    /// the hot entries. The store stays locked for the walk, so `f` must
    /// not call back into it.
    pub fn scan_prefix<E: From<Error>>(
        &self,
        prefix: &[u8],
        mut f: impl FnMut(&[u8], &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let mut guard = self.lock();
        let g = &mut *guard;
        let mut buf = Vec::new();
        for (key, i) in prefix_range(&g.index, prefix) {
            g.stats.gets += 1;
            let value = match &g.slots[i as usize].cached {
                Some(v) => {
                    g.stats.cache_hits += 1;
                    &v[..]
                }
                None => {
                    g.stats.cache_misses += 1;
                    g.read_value(i, &mut buf)?;
                    &buf[..]
                }
            };
            f(key, value)?;
        }
        Ok(())
    }

    /// Current operation counters.
    pub fn stats(&self) -> StoreStats {
        let g = self.lock();
        StoreStats { log_bytes: g.log_len, live_entries: g.index.len() as u64, ..g.stats }
    }

    /// Force all buffered data to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.lock().file.sync_data()?;
        Ok(())
    }

    /// Rewrite the log with only live records in key order, atomically
    /// replacing it. Reclaims space from overwritten and deleted entries;
    /// the cache keeps its contents and recency order.
    pub fn compact(&self) -> Result<()> {
        let mut guard = self.lock();
        let g = &mut *guard;
        let tmp_path = self.path.with_extension("compact");
        let mut tmp = std::io::BufWriter::new(File::create(&tmp_path)?);
        let mut buf = Vec::new();
        for (key, &i) in &g.index {
            let value = match &g.slots[i as usize].cached {
                Some(v) => &v[..],
                None => {
                    g.read_value(i, &mut buf)?;
                    &buf[..]
                }
            };
            tmp.write_all(&wal::encode_put(key, value)?)?;
        }
        let tmp = tmp.into_inner().map_err(|e| e.into_error())?;
        tmp.sync_data()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path)?;
        g.file = OpenOptions::new().read(true).append(true).open(&self.path)?;
        // Every value moved: lay the records out again in the same order.
        let mut pos = 0u64;
        for (key, &i) in &g.index {
            let slot = &mut g.slots[i as usize];
            slot.offset = pos + wal::HEADER as u64 + key.len() as u64;
            pos = slot.offset + u64::from(slot.len);
        }
        g.log_len = pos;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kvstore-test-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn small_cache(path: &Path, cap: usize) -> Store {
        Store::open(path, StoreOptions { sync_on_write: false, max_cached_values: cap }).unwrap()
    }

    /// The cached keys from most to least recently used, after checking
    /// that the recency list is well linked and holds exactly the cached
    /// slots.
    fn recency(s: &Store) -> Vec<Vec<u8>> {
        let g = s.lock();
        let key_of: BTreeMap<u32, &[u8]> = g.index.iter().map(|(k, &i)| (i, &k[..])).collect();
        let mut order = Vec::new();
        let (mut prev, mut cur) = (NIL, g.head);
        while cur != NIL {
            let slot = &g.slots[cur as usize];
            assert_eq!(slot.prev, prev, "back link of slot {cur}");
            assert!(slot.cached.is_some(), "uncached slot {cur} in the list");
            order.push(key_of[&cur].to_vec());
            (prev, cur) = (cur, slot.next);
        }
        assert_eq!(g.tail, prev);
        assert_eq!(order.len(), g.cached_count);
        let cached = g.index.values().filter(|&&i| g.slots[i as usize].cached.is_some()).count();
        assert_eq!(cached, g.cached_count);
        order
    }

    fn keys(ks: &[&[u8]]) -> Vec<Vec<u8>> {
        ks.iter().map(|k| k.to_vec()).collect()
    }

    #[test]
    fn put_get_delete_cycle() {
        let path = tmp_path("basic");
        let s = Store::open_default(&path).unwrap();
        assert!(s.is_empty());
        s.put(b"k1", b"v1").unwrap();
        s.put(b"k2", b"v2").unwrap();
        assert_eq!(s.get(b"k1").unwrap().as_deref(), Some(&b"v1"[..]));
        assert_eq!(s.len(), 2);
        assert!(s.delete(b"k1").unwrap());
        assert!(!s.delete(b"k1").unwrap());
        assert_eq!(s.get(b"k1").unwrap(), None);
        assert_eq!(s.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overwrite_returns_latest() {
        let path = tmp_path("overwrite");
        let s = Store::open_default(&path).unwrap();
        s.put(b"k", b"old").unwrap();
        s.put(b"k", b"new").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"new"[..]));
        assert_eq!(s.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_recovers_state() {
        let path = tmp_path("reopen");
        {
            let s = Store::open_default(&path).unwrap();
            s.put(b"a", b"1").unwrap();
            s.put(b"b", b"2").unwrap();
            s.delete(b"a").unwrap();
            s.put(b"c", b"3").unwrap();
        }
        let s = Store::open_default(&path).unwrap();
        assert_eq!(s.get(b"a").unwrap(), None);
        assert_eq!(s.get(b"b").unwrap().as_deref(), Some(&b"2"[..]));
        assert_eq!(s.get(b"c").unwrap().as_deref(), Some(&b"3"[..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp_path("torn");
        {
            let s = Store::open_default(&path).unwrap();
            s.put(b"good", b"data").unwrap();
        }
        // Simulate a torn write: append garbage.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB; 7]).unwrap();
        }
        let s = Store::open_default(&path).unwrap();
        assert_eq!(s.get(b"good").unwrap().as_deref(), Some(&b"data"[..]));
        assert_eq!(s.len(), 1);
        // And the store keeps working after truncation.
        s.put(b"more", b"stuff").unwrap();
        drop(s);
        let s = Store::open_default(&path).unwrap();
        assert_eq!(s.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_eviction_still_serves_reads() {
        let path = tmp_path("evict");
        let s = small_cache(&path, 2);
        for i in 0..20u32 {
            s.put(format!("key{i}").as_bytes(), format!("val{i}").as_bytes()).unwrap();
        }
        for i in 0..20u32 {
            let got = s.get(format!("key{i}").as_bytes()).unwrap().unwrap();
            assert_eq!(got, format!("val{i}").as_bytes());
        }
        let st = s.stats();
        assert!(st.cache_misses > 0, "eviction must force log reads");
        assert_eq!(recency(&s).len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_value() {
        let path = tmp_path("lru");
        let s = small_cache(&path, 2);
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        s.put(b"c", b"3").unwrap();
        s.get(b"b").unwrap();
        s.get(b"a").unwrap(); // a becomes most recent, so b goes first
        s.get(b"c").unwrap();
        assert_eq!(recency(&s), keys(&[b"c", b"a"]));
        let before = s.stats();
        assert_eq!(s.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(s.stats().cache_hits, before.cache_hits + 1, "a stayed cached");
        assert_eq!(s.get(b"b").unwrap().as_deref(), Some(&b"2"[..]));
        assert_eq!(s.stats().cache_misses, before.cache_misses + 1, "b was evicted");
        // Re-reading b cached it as most recent and pushed out c.
        assert_eq!(recency(&s), keys(&[b"b", b"a"]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lru_order_survives_heavy_churn() {
        let path = tmp_path("churn");
        let s = small_cache(&path, 25);
        let key = |k: u32| format!("k{k:02}").into_bytes();
        for round in 0..20u32 {
            for k in 0..50u32 {
                s.put(&key(k), &round.to_le_bytes()).unwrap();
            }
            // Every key was overwritten, so nothing stays cached.
            assert_eq!(recency(&s), Vec::<Vec<u8>>::new(), "round {round}");
            let before = s.stats();
            for k in 0..50u32 {
                assert_eq!(s.get(&key(k)).unwrap().unwrap(), round.to_le_bytes());
            }
            // The 25 most recent gets are cached, newest first.
            let want: Vec<Vec<u8>> = (25..50u32).rev().map(key).collect();
            assert_eq!(recency(&s), want, "round {round}");
            for k in (0..10u32).rev() {
                assert_eq!(s.get(&key(k)).unwrap().unwrap(), round.to_le_bytes());
            }
            let after = s.stats();
            assert_eq!(after.cache_misses - before.cache_misses, 60, "round {round}");
            assert_eq!(after.cache_hits, before.cache_hits, "round {round}");
            let order = recency(&s);
            assert_eq!(order[..10], (0..10u32).map(key).collect::<Vec<_>>()[..]);
            assert_eq!(order[10..], (35..50u32).rev().map(key).collect::<Vec<_>>()[..]);
            for k in (0..50u32).step_by(7) {
                s.delete(&key(k)).unwrap();
            }
            recency(&s);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delete_then_reinsert_keeps_the_cached_count() {
        let path = tmp_path("recount");
        let s = small_cache(&path, 2);
        s.put(b"k", b"v1").unwrap();
        s.put(b"x", b"x").unwrap();
        s.get(b"k").unwrap();
        s.get(b"x").unwrap();
        assert_eq!(recency(&s), keys(&[b"x", b"k"]));
        assert!(s.delete(b"k").unwrap());
        assert_eq!(recency(&s), keys(&[b"x"]));
        s.put(b"k", b"v2").unwrap();
        assert_eq!(recency(&s), keys(&[b"x"]));
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
        assert_eq!(recency(&s), keys(&[b"k", b"x"]));
        s.put(b"y", b"y").unwrap();
        s.get(b"y").unwrap();
        assert_eq!(recency(&s), keys(&[b"y", b"k"]));
        let hits = s.stats().cache_hits;
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
        assert_eq!(s.stats().cache_hits, hits + 1, "k stayed cached");
        // The deleted key's slot was reused rather than leaked.
        assert_eq!(s.lock().slots.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn put_leaves_the_cache_untouched() {
        let path = tmp_path("write-around");
        let s = small_cache(&path, 3);
        for k in [b"a", b"b", b"c"] {
            s.put(k, b"old").unwrap();
        }
        assert_eq!(recency(&s), Vec::<Vec<u8>>::new(), "puts cache nothing");
        for k in [b"a", b"b", b"c"] {
            s.get(k).unwrap();
        }
        assert_eq!(recency(&s), keys(&[b"c", b"b", b"a"]));
        // A new key leaves the list and the count as they were.
        s.put(b"d", b"new").unwrap();
        assert_eq!(recency(&s), keys(&[b"c", b"b", b"a"]));
        // A put over a cached key drops only that key's stale value.
        s.put(b"b", b"new").unwrap();
        assert_eq!(recency(&s), keys(&[b"c", b"a"]));
        let before = s.stats();
        assert_eq!(s.get(b"b").unwrap().as_deref(), Some(&b"new"[..]));
        let after = s.stats();
        assert_eq!(after.cache_misses, before.cache_misses + 1, "b is re-read from the log");
        assert_eq!(after.cache_hits, before.cache_hits);
        assert_eq!(recency(&s), keys(&[b"b", b"c", b"a"]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_shrinks_log_and_preserves_data() {
        let path = tmp_path("compact");
        let s = Store::open(
            &path,
            StoreOptions { sync_on_write: false, ..StoreOptions::default() },
        )
        .unwrap();
        for round in 0..10u32 {
            for i in 0..50u32 {
                s.put(format!("k{i}").as_bytes(), format!("r{round}v{i}").as_bytes())
                    .unwrap();
            }
        }
        let before = s.stats().log_bytes;
        s.compact().unwrap();
        let after = s.stats().log_bytes;
        assert!(after < before / 5, "before={before} after={after}");
        for i in 0..50u32 {
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap().unwrap(),
                format!("r9v{i}").as_bytes()
            );
        }
        // Post-compaction appends and reopen still work.
        s.put(b"post", b"compact").unwrap();
        drop(s);
        let s = Store::open_default(&path).unwrap();
        assert_eq!(s.len(), 51);
        assert_eq!(s.get(b"post").unwrap().as_deref(), Some(&b"compact"[..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_after_eviction_serves_every_value() {
        let path = tmp_path("compact-evicted");
        let s = small_cache(&path, 3);
        let value = |i: u32, round: u32| format!("r{round}-{}", "v".repeat(i as usize));
        for round in 0..3u32 {
            for i in 0..30u32 {
                s.put(format!("k{i:02}").as_bytes(), value(i, round).as_bytes()).unwrap();
            }
        }
        s.delete(b"k07").unwrap();
        for k in [b"k03", b"k29", b"k11"] {
            s.get(k).unwrap();
        }
        let cached = recency(&s);
        assert_eq!(cached, keys(&[b"k11", b"k29", b"k03"]));
        s.compact().unwrap();
        assert_eq!(recency(&s), cached, "compaction keeps the cache as it was");
        let check = |s: &Store| {
            assert_eq!(s.len(), 29);
            for i in (0..30u32).filter(|&i| i != 7) {
                let got = s.get(format!("k{i:02}").as_bytes()).unwrap().unwrap();
                assert_eq!(got, value(i, 2).as_bytes(), "k{i:02}");
            }
            assert_eq!(s.get(b"k07").unwrap(), None);
        };
        check(&s);
        let log_bytes = s.stats().log_bytes;
        drop(s);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), log_bytes);
        check(&small_cache(&path, 3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_count_operations() {
        let path = tmp_path("stats");
        let s = Store::open_default(&path).unwrap();
        s.put(b"a", b"1").unwrap();
        s.get(b"a").unwrap(); // a miss that fills the cache
        s.get(b"a").unwrap();
        s.get(b"missing").unwrap();
        s.delete(b"a").unwrap();
        let st = s.stats();
        assert_eq!(st.puts, 1);
        assert_eq!(st.gets, 3);
        assert_eq!(st.deletes, 1);
        assert_eq!(st.live_entries, 0);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.cache_misses, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delete_then_reinsert_same_key() {
        let path = tmp_path("reinsert");
        let s = Store::open_default(&path).unwrap();
        s.put(b"k", b"v1").unwrap();
        s.delete(b"k").unwrap();
        s.put(b"k", b"v2").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
        assert_eq!(s.len(), 1);
        drop(s);
        let s = Store::open_default(&path).unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn contains_and_empty_flags() {
        let path = tmp_path("flags");
        let s = Store::open_default(&path).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.get(b"x").unwrap(), None);
        s.put(b"x", b"").unwrap();
        assert!(!s.is_empty());
        assert_eq!(s.get(b"x").unwrap().as_deref(), Some(&b""[..]), "empty values are legal");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prefix_scan_isolates_namespaces() {
        let path = tmp_path("prefix");
        let s = Store::open_default(&path).unwrap();
        s.put(b"drt:a", b"1").unwrap();
        s.put(b"drt:b", b"2").unwrap();
        s.put(b"rst:a", b"3").unwrap();
        let drt_keys = s.keys_with_prefix(b"drt:");
        assert_eq!(drt_keys, vec![b"drt:a".to_vec(), b"drt:b".to_vec()]);
        assert_eq!(s.keys_with_prefix(b"rst:").len(), 1);
        assert!(s.keys_with_prefix(b"zzz:").is_empty());
        assert_eq!(s.keys_with_prefix(b""), keys(&[b"drt:a", b"drt:b", b"rst:a"]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scan_prefix_reads_in_key_order_without_touching_the_cache() {
        let path = tmp_path("scan");
        let s = small_cache(&path, 3);
        for k in ["p:d", "p:b", "q:a", "p", "p:a", "o:z", "p:c"] {
            s.put(k.as_bytes(), format!("value of {k}").as_bytes()).unwrap();
        }
        for k in ["p:a", "o:z", "p:c"] {
            s.get(k.as_bytes()).unwrap();
        }
        let cached = recency(&s);
        assert_eq!(cached, keys(&[b"p:c", b"o:z", b"p:a"]));
        let before = s.stats();
        let mut seen = Vec::new();
        s.scan_prefix(b"p:", |k, v| {
            seen.push((k.to_vec(), v.to_vec()));
            Ok::<(), Error>(())
        })
        .unwrap();
        let after = s.stats();
        let want = keys(&[b"p:a", b"p:b", b"p:c", b"p:d"]);
        assert_eq!(seen.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(), want);
        assert_eq!(recency(&s), cached, "the scan neither fills nor reorders the cache");
        assert_eq!(after.gets, before.gets + 4);
        assert_eq!(after.cache_hits, before.cache_hits + 2, "p:a and p:c are cached");
        assert_eq!(after.cache_misses, before.cache_misses + 2);
        for (k, v) in &seen {
            assert_eq!(s.get(k).unwrap().as_ref(), Some(v));
        }
        let mut none = 0;
        s.scan_prefix(b"p:e", |_, _| {
            none += 1;
            Ok::<(), Error>(())
        })
        .unwrap();
        assert_eq!(none, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scan_prefix_stops_at_the_first_visitor_error() {
        let path = tmp_path("scan-err");
        let s = Store::open_default(&path).unwrap();
        for k in [b"t:1", b"t:2", b"t:3"] {
            s.put(k, b"v").unwrap();
        }
        let mut visited = 0;
        let err = s
            .scan_prefix(b"t:", |k, _| {
                visited += 1;
                if k == b"t:2" {
                    return Err(Error::Corrupt { offset: 2, reason: "stop".into() });
                }
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, Error::Corrupt { offset: 2, .. }), "{err}");
        assert_eq!(visited, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_across_threads() {
        let path = tmp_path("threads");
        let s = std::sync::Arc::new(Store::open(
            &path,
            StoreOptions { sync_on_write: false, ..StoreOptions::default() },
        ).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    let k = format!("t{t}-{i}");
                    s.put(k.as_bytes(), k.as_bytes()).unwrap();
                    assert_eq!(s.get(k.as_bytes()).unwrap().unwrap(), k.as_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 400);
        let _ = std::fs::remove_file(&path);
    }
}
