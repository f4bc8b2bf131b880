//! Recovery memory is bounded by the live keys and the read window, not by
//! the log's length.
//!
//! This file holds a single test so that nothing else allocates through
//! the counting allocator while it measures.

use kvstore::{Store, StoreOptions};
use simrt::heap;
use std::io::Write;

#[global_allocator]
static A: simrt::heap::Counting = simrt::heap::Counting;

const KEYS: u32 = 64;
const VALUE: usize = 64 << 10;
const BOUND: usize = 256 << 10;

fn value(key: u32, round: u32) -> Vec<u8> {
    vec![(key * 4 + round) as u8; VALUE]
}

#[test]
fn open_allocates_for_keys_not_for_the_log() {
    let path = std::env::temp_dir().join(format!("kvstore-open-memory-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let opts = StoreOptions { sync_on_write: false, ..StoreOptions::default() };
    {
        // 4 MiB of live values, each written once and overwritten three
        // times: a 16 MiB log whose records all straddle a window edge.
        let s = Store::open(&path, opts.clone()).unwrap();
        for round in 0..4 {
            for k in 0..KEYS {
                s.put(format!("key{k:02}").as_bytes(), &value(k, round)).unwrap();
            }
        }
        s.sync().unwrap();
    }
    let log_len = std::fs::metadata(&path).unwrap().len();
    assert!(log_len > 4 * u64::from(KEYS) * VALUE as u64);

    let check = |s: &Store| {
        assert_eq!(s.len(), KEYS as usize);
        assert_eq!(s.stats().log_bytes, log_len);
        for k in [0, 31, KEYS - 1] {
            assert_eq!(s.get(format!("key{k:02}").as_bytes()).unwrap().unwrap(), value(k, 3));
        }
    };
    let (s, peak) = heap::peak_during(|| Store::open(&path, opts.clone()).unwrap());
    assert!(peak < BOUND, "open of a {log_len}-byte log peaked at {peak} bytes");
    check(&s);
    drop(s);

    // A torn tail whose header claims a 0xFFFF_FFFE-byte value: open must
    // truncate at that header without allocating for the value.
    {
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        let mut tail = Vec::new();
        for word in [0u32, 4, 0xFFFF_FFFE] {
            tail.extend_from_slice(&word.to_le_bytes());
        }
        tail.extend_from_slice(b"tail");
        tail.extend_from_slice(&[0x5A; 100]);
        f.write_all(&tail).unwrap();
    }
    let (s, peak) = heap::peak_during(|| Store::open(&path, opts.clone()).unwrap());
    assert!(peak < BOUND, "open with a huge torn header peaked at {peak} bytes");
    assert_eq!(std::fs::metadata(&path).unwrap().len(), log_len, "truncated at the header");
    check(&s);
    drop(s);
    let _ = std::fs::remove_file(&path);
}
